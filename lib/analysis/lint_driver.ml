let solver_dirs =
  [ "core"; "cq"; "relational"; "folang"; "covergame"; "lp"; "linsep" ]

type config = {
  root : string;
  rules : Lint_finding.rule list;
  baseline : string option;
}

let default_config ~root =
  { root; rules = Lint_finding.all_rules; baseline = None }

type report = {
  findings : Lint_finding.t list;
  files_checked : int;
  suppressed : int;
  baselined : int;
  stale_baseline : string list;
  missing_file_baseline : string list;
  typed_modules : int;
}

(* --- baseline --------------------------------------------------------- *)

type baseline_entry = {
  b_rule : Lint_finding.rule;
  b_file : string;
  b_key : string;
  b_reason : string;
}

let split_reason_line line =
  (* " — " (em dash) or " -- " separates entry from reason. *)
  let try_sep sep =
    let n = String.length line and sn = String.length sep in
    let rec go i =
      if i + sn > n then None
      else if String.sub line i sn = sep then
        Some (String.sub line 0 i, String.sub line (i + sn) (n - i - sn))
      else go (i + 1)
    in
    go 0
  in
  match try_sep " \xe2\x80\x94 " with
  | Some _ as r -> r
  | None -> try_sep " -- "

let parse_baseline contents =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> begin
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
        else
          match split_reason_line trimmed with
          | None ->
              Error
                (Printf.sprintf
                   "baseline line %d: missing the mandatory \xe2\x80\x94 \
                    reason separator: %S"
                   lineno trimmed)
          | Some (entry, reason) -> begin
              let reason = String.trim reason in
              if reason = "" then
                Error
                  (Printf.sprintf
                     "baseline line %d: empty reason (every grandfathered \
                      finding needs a justification)"
                     lineno)
              else
                match
                  String.split_on_char ' ' (String.trim entry)
                  |> List.filter (fun s -> s <> "")
                with
                | [ rule; file; key ] -> begin
                    match Lint_finding.rule_of_string rule with
                    | Some b_rule ->
                        go (lineno + 1)
                          ({ b_rule; b_file = file; b_key = key;
                             b_reason = reason }
                          :: acc)
                          rest
                    | None ->
                        Error
                          (Printf.sprintf "baseline line %d: unknown rule %S"
                             lineno rule)
                  end
                | _ ->
                    Error
                      (Printf.sprintf
                         "baseline line %d: expected `RULE file key \
                          \xe2\x80\x94 reason`, got %S"
                         lineno trimmed)
            end
      end
  in
  go 1 [] lines

let baseline_line (f : Lint_finding.t) =
  Printf.sprintf "%s %s %s \xe2\x80\x94 TODO: justify or fix"
    (Lint_finding.rule_to_string f.rule)
    f.file f.key

let matches_baseline entries (f : Lint_finding.t) =
  List.exists
    (fun e ->
      e.b_rule = f.Lint_finding.rule
      && e.b_file = f.Lint_finding.file
      && e.b_key = f.Lint_finding.key)
    entries

(* --- per-file runs ---------------------------------------------------- *)

let lint_source_counted ?(extra = []) ~rules (src : Lint_source.t) =
  let enabled r = List.mem r rules in
  let raw =
    (if enabled Lint_finding.R2 then Lint_rules.r2_exceptions src else [])
    @ if enabled Lint_finding.R3 then Lint_rules.r3_comparisons src else []
  in
  (* R0 findings (malformed directives) ride along unconditionally: a
     broken suppression must never pass silently. [extra] is the typed
     findings attributed to this file — suppression directives govern
     them exactly like the Parsetree findings. *)
  Lint_source.apply src (raw @ extra)

let lint_source ~rules src = fst (lint_source_counted ~rules src)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let list_dir path =
  match Sys.readdir path with
  | entries ->
      Array.sort String.compare entries;
      Ok (Array.to_list entries)
  | exception Sys_error msg -> Error msg

let ( let* ) = Result.bind

(* --- directory scan --------------------------------------------------- *)

type dirspec = {
  ds_rel : string;  (* root-relative, e.g. "lib/core" or "bin" *)
  ds_path : string;  (* filesystem path *)
  ds_solver : bool;
  ds_lib : bool;  (* library dir: .mli discipline + typed pass *)
  ds_ml : string list;
  ds_mli : string list;
}

(* [bin]/[bench] hold executables: no .mli discipline, no typed
   pass — R0/R2/R3 apply. *)
let exec_dirs = [ "bin"; "bench" ]

let scan_dirs root =
  let lib_dir = Filename.concat root "lib" in
  let* subdirs = list_dir lib_dir in
  let subdirs =
    List.filter (fun d -> Sys.is_directory (Filename.concat lib_dir d)) subdirs
  in
  let spec ~rel ~path ~solver ~lib =
    let* entries = list_dir path in
    Ok
      {
        ds_rel = rel;
        ds_path = path;
        ds_solver = solver;
        ds_lib = lib;
        ds_ml = List.filter (fun f -> Filename.check_suffix f ".ml") entries;
        ds_mli = List.filter (fun f -> Filename.check_suffix f ".mli") entries;
      }
  in
  let* libs =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* s =
          spec
            ~rel:(Filename.concat "lib" d)
            ~path:(Filename.concat lib_dir d)
            ~solver:(List.mem d solver_dirs) ~lib:true
        in
        Ok (s :: acc))
      (Ok []) subdirs
  in
  let* execs =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let path = Filename.concat root d in
        if Sys.file_exists path && Sys.is_directory path then
          let* s = spec ~rel:d ~path ~solver:false ~lib:false in
          Ok (s :: acc)
        else Ok acc)
      (Ok []) exec_dirs
  in
  Ok (List.rev libs @ List.rev execs)

(* --- typed pass ------------------------------------------------------- *)

(* The library name names the [.objs] directory the cmts live in; read
   it from the dir's dune file rather than assuming it matches the
   directory name. *)
let lib_name_of_dune path =
  match read_file path with
  | Error _ -> None
  | Ok s ->
      let len = String.length s in
      let is_word c =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      in
      let rec find i =
        if i + 5 > len then None
        else if String.sub s i 5 = "(name" then begin
          let j = ref (i + 5) in
          while
            !j < len && (s.[!j] = ' ' || s.[!j] = '\n' || s.[!j] = '\t')
          do
            incr j
          done;
          let k = ref !j in
          while !k < len && is_word s.[!k] do
            incr k
          done;
          if !k > !j then Some (String.sub s !j (!k - !j)) else None
        end
        else find (i + 1)
      in
      find 0

let load_dir ~root ~rel_dir ~lib_name ~solver ~ml ~mli =
  let units = Lint_cmt.load_units ~root ~rel_dir ~lib_name ~ml ~mli in
  match Lint_cmt.unannotated units with
  | file :: _ ->
      Error
        (Printf.sprintf
           "%s: no readable .cmt/.cmti annotation under _build (library \
            %s); run `dune build @lib/all` first"
           file lib_name)
  | [] ->
      Ok
        (List.filter_map
           (fun (u : Lint_cmt.unit_info) ->
             match (u.u_impl, u.u_ml) with
             | Some impl, Some file ->
                 Some
                   {
                     Typed_rules.s_mod = u.u_module;
                     s_file = file;
                     s_mli = u.u_mli;
                     s_solver = solver;
                     s_impl = impl;
                     s_intf = u.u_intf;
                   }
             | _ -> None)
           units)

let load_typed ~root dirs =
  List.fold_left
    (fun acc ds ->
      let* acc = acc in
      if not ds.ds_lib then Ok acc
      else
        match lib_name_of_dune (Filename.concat ds.ds_path "dune") with
        | None ->
            Error
              (Filename.concat ds.ds_rel "dune"
              ^ ": no (name ...) field to locate the .cmt files by")
        | Some lib_name ->
            let* srcs =
              load_dir ~root ~rel_dir:ds.ds_rel ~lib_name ~solver:ds.ds_solver
                ~ml:ds.ds_ml ~mli:ds.ds_mli
            in
            Ok (acc @ srcs))
    (Ok []) dirs

let load_lib ~root =
  let* dirs = scan_dirs root in
  let* sources = load_typed ~root dirs in
  if sources = [] then
    Error (Printf.sprintf "no library modules under %s/lib" root)
  else Ok sources

let impls_of sources =
  List.map
    (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
    sources

let build_graph sources = Callgraph.build (impls_of sources)

let callgraph config =
  let* srcs = load_lib ~root:config.root in
  Ok (build_graph srcs)

(* --- the exactness report and R11 -------------------------------------- *)

let taint_report_file = "docs/EXACTNESS.md"

let taint_report config =
  let* srcs = load_lib ~root:config.root in
  let g = build_graph srcs in
  let tnt = Taint.analyze g (impls_of srcs) in
  Ok (Protocol_rules.exactness_report tnt g srcs)

(* R11 lives here rather than in [Typed_rules]: drift is a property of
   the lint root (the committed file), not of the typed trees. The
   finding attaches to the report file itself, which is never scanned,
   so the caller appends it to the stream directly — suppression
   directives cannot apply, the baseline still can. *)
let r11_drift config tnt g srcs =
  let want = Protocol_rules.exactness_report tnt g srcs in
  let mk msg =
    [
      Lint_finding.v ~rule:Lint_finding.R11 ~file:taint_report_file ~line:1
        ~col:0 ~key:"drift:taint-report" msg;
    ]
  in
  match read_file (Filename.concat config.root taint_report_file) with
  | Error _ ->
      mk
        "the exactness report is missing: generate it with `dune exec \
         bin/lint.exe -- --root . --taint-report > docs/EXACTNESS.md` and \
         commit it"
  | Ok have ->
      if have = want then []
      else
        mk
          "the exactness report is stale: an entry point's taint verdict \
           changed; regenerate with `dune exec bin/lint.exe -- --root . \
           --taint-report > docs/EXACTNESS.md` and review which entry \
           points moved across the exactness boundary before committing"

(* --- the tree run ----------------------------------------------------- *)

let run config =
  let* baseline =
    match config.baseline with
    | None -> Ok []
    | Some path ->
        let* contents = read_file path in
        parse_baseline contents
  in
  let* dirs = scan_dirs config.root in
  let* typed_sources = load_typed ~root:config.root dirs in
  let enabled r = List.mem r config.rules in
  let typed_findings, r11_findings =
    match typed_sources with
    | [] -> ([], [])
    | srcs ->
        let g = build_graph srcs in
        (* The taint pass feeds both the protocol rules and R11's drift
           check; compute it once, and only when something enabled
           wants it. *)
        let tnt =
          if
            List.exists enabled
              [
                Lint_finding.R11; Lint_finding.R12; Lint_finding.R13;
                Lint_finding.R14;
              ]
          then Some (Taint.analyze g (impls_of srcs))
          else None
        in
        let proto, r11 =
          match tnt with
          | Some tnt ->
              ( Protocol_rules.run ~rules:config.rules tnt g srcs,
                if enabled Lint_finding.R11 then r11_drift config tnt g srcs
                else [] )
          | None -> ([], [])
        in
        ( List.filter
            (fun (f : Lint_finding.t) -> enabled f.rule)
            (Typed_rules.run g srcs)
          @ proto,
          r11 )
  in
  let typed_by_file = Hashtbl.create 32 in
  List.iter
    (fun (f : Lint_finding.t) ->
      let prev =
        match Hashtbl.find_opt typed_by_file f.file with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace typed_by_file f.file (f :: prev))
    typed_findings;
  let* per_dir =
    List.fold_left
      (fun acc ds ->
        let* acc = acc in
        let structural =
          if ds.ds_lib && enabled Lint_finding.R4 then
            Lint_rules.r4_missing_mli ~dir:ds.ds_rel ~ml:ds.ds_ml
              ~mli:ds.ds_mli
          else []
        in
        let* file_findings =
          List.fold_left
            (fun acc file ->
              let* acc = acc in
              let fs_path = Filename.concat ds.ds_path file in
              let rel_path = Filename.concat ds.ds_rel file in
              let* src = Lint_source.load ~path:rel_path fs_path in
              let extra =
                match Hashtbl.find_opt typed_by_file rel_path with
                | Some l -> List.rev l
                | None -> []
              in
              let findings, nsup =
                lint_source_counted ~extra ~rules:config.rules src
              in
              Ok ((1, nsup, findings) :: acc))
            (Ok [])
            (ds.ds_ml @ ds.ds_mli)
        in
        Ok ((structural, file_findings) :: acc))
      (Ok []) dirs
  in
  let files_checked =
    List.fold_left
      (fun n (_, per_file) ->
        List.fold_left (fun n (c, _, _) -> n + c) n per_file)
      0 per_dir
  in
  let suppressed =
    List.fold_left
      (fun n (_, per_file) ->
        List.fold_left (fun n (_, s, _) -> n + s) n per_file)
      0 per_dir
  in
  let all =
    r11_findings
    @ List.concat_map
        (fun (structural, per_file) ->
          structural @ List.concat_map (fun (_, _, fs) -> fs) per_file)
        per_dir
  in
  (* Suppression filtering already happened per file; now apply the
     baseline. *)
  let kept, grandfathered =
    List.partition (fun f -> not (matches_baseline baseline f)) all
  in
  let unmatched =
    List.filter
      (fun e ->
        not
          (List.exists
             (fun (f : Lint_finding.t) ->
               e.b_rule = f.rule && e.b_file = f.file && e.b_key = f.key)
             all))
      baseline
  in
  (* An unmatched entry whose file is gone is a distinct defect from a
     fixed finding in a live file: the entry can only be deleted. *)
  let missing_file, stale =
    List.partition
      (fun e ->
        not (Sys.file_exists (Filename.concat config.root e.b_file)))
      unmatched
  in
  let render e =
    Printf.sprintf "%s %s %s"
      (Lint_finding.rule_to_string e.b_rule)
      e.b_file e.b_key
  in
  Ok
    {
      findings = List.sort Lint_finding.compare kept;
      files_checked;
      suppressed;
      baselined = List.length grandfathered;
      stale_baseline = List.map render stale;
      missing_file_baseline = List.map render missing_file;
      typed_modules = List.length typed_sources;
    }
