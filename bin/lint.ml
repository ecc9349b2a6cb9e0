(* cqlint — static analysis over the repo's own sources.

   Exit codes: 0 clean, 1 findings (or stale baseline entries under
   --strict-baseline), 2 internal error (unparsable source, a lib/
   source without a .cmt, unreadable/malformed baseline, bad flags). *)

let usage =
  "cqlint [--root DIR] [--rules R1,R2,...] [--baseline FILE] \
   [--strict-baseline] [--dump-callgraph] [--dot] [--taint-report] \
   [--json] [--sarif FILE] [--write-baseline] [--quiet]"

let () =
  let root = ref "." in
  let rules = ref Lint_finding.all_rules in
  let baseline = ref None in
  let strict_baseline = ref false in
  let dump_callgraph = ref false in
  let taint_report = ref false in
  let dot = ref false in
  let json = ref false in
  let sarif = ref None in
  let write_baseline = ref false in
  let quiet = ref false in
  let bad_flags = ref [] in
  let set_rules spec =
    let parsed =
      String.split_on_char ',' spec
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match Lint_finding.rule_of_string (String.trim s) with
             | Some r -> r
             | None ->
                 bad_flags := Printf.sprintf "unknown rule %S" s :: !bad_flags;
                 Lint_finding.R0)
    in
    rules := parsed
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ( "--rules",
        Arg.String set_rules,
        "R1,R2,... enable only these rules (default: all of R1-R14 but the \
         retired R5)" );
      ( "--baseline",
        Arg.String (fun f -> baseline := Some f),
        "FILE grandfather the findings listed (with reasons) in FILE" );
      ( "--strict-baseline",
        Arg.Set strict_baseline,
        " stale baseline entries are an error (exit 1), not a warning" );
      ( "--dump-callgraph",
        Arg.Set dump_callgraph,
        " print the whole-library call graph and exit" );
      ( "--dot",
        Arg.Set dot,
        " with --dump-callgraph: emit Graphviz of the SCC condensation" );
      ( "--taint-report",
        Arg.Set taint_report,
        " print the exactness-boundary report (docs/EXACTNESS.md) and exit" );
      ("--json", Arg.Set json, " emit findings as a JSON array");
      ( "--sarif",
        Arg.String (fun f -> sarif := Some f),
        "FILE also write findings to FILE as SARIF 2.1.0" );
      ( "--write-baseline",
        Arg.Set write_baseline,
        " print baseline lines for the current findings and exit 0" );
      ("--quiet", Arg.Set quiet, " suppress the summary line");
    ]
  in
  Arg.parse spec
    (fun anon ->
      bad_flags := Printf.sprintf "unexpected argument %S" anon :: !bad_flags)
    usage;
  (match !bad_flags with
  | [] -> ()
  | msgs ->
      List.iter (Printf.eprintf "cqlint: %s\n") msgs;
      exit 2);
  let config =
    {
      Lint_driver.root = !root;
      rules = !rules;
      (* Regenerating the baseline must see the full finding list (and
         must not require the old file to exist), so skip reading it. *)
      baseline = (if !write_baseline then None else !baseline);
    }
  in
  if !dump_callgraph || !dot then begin
    match Lint_driver.callgraph config with
    | Error msg ->
        Printf.eprintf "cqlint: internal error: %s\n" msg;
        exit 2
    | Ok g ->
        let buf = Buffer.create 4096 in
        (if !dot then Callgraph.dump_dot else Callgraph.dump) g buf;
        print_string (Buffer.contents buf);
        exit 0
  end;
  if !taint_report then begin
    match Lint_driver.taint_report config with
    | Error msg ->
        Printf.eprintf "cqlint: internal error: %s\n" msg;
        exit 2
    | Ok text ->
        print_string text;
        exit 0
  end;
  match Lint_driver.run config with
  | Error msg ->
      Printf.eprintf "cqlint: internal error: %s\n" msg;
      exit 2
  | Ok report ->
      let open Lint_driver in
      List.iter
        (fun e ->
          Printf.eprintf "cqlint: %s: stale baseline entry: %s\n"
            (if !strict_baseline then "error" else "warning")
            e)
        report.stale_baseline;
      List.iter
        (fun e ->
          Printf.eprintf
            "cqlint: %s: baseline entry references a missing file (delete \
             the entry): %s\n"
            (if !strict_baseline then "error" else "warning")
            e)
        report.missing_file_baseline;
      if !write_baseline then begin
        List.iter
          (fun f -> print_endline (Lint_driver.baseline_line f))
          report.findings;
        exit 0
      end;
      (match !sarif with
      | None -> ()
      | Some file ->
          let oc = open_out_bin file in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (Lint_sarif.to_sarif report.findings);
              output_char oc '\n'));
      if !json then print_endline (Lint_finding.list_to_json report.findings)
      else
        List.iter
          (fun f -> print_endline (Lint_finding.to_text f))
          report.findings;
      if not !quiet then
        Printf.eprintf
          "cqlint: %d file(s), %d typed module(s), %d finding(s), %d \
           suppressed, %d baselined\n"
          report.files_checked report.typed_modules
          (List.length report.findings)
          report.suppressed report.baselined;
      let stale_fails =
        !strict_baseline
        && (report.stale_baseline <> [] || report.missing_file_baseline <> [])
      in
      exit (if report.findings = [] && not stale_fails then 0 else 1)
