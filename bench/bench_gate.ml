(* bench_gate [--max-regress PCT] BASELINE CURRENT —
   regression gate over the flat {"key": number, ...} JSON
   trajectories the bench harness writes.

   Default mode is the linsep/numeric_vs_exact gate (BENCH_linsep.json):
     - every instance's numeric verdict agreed with the exact solver;
     - total speedup over exact-only is at least 10x;
     - speedup and certification rate regressed by no more than 20%
       against the committed baseline.

   With --max-regress PCT the gate is generic and metric-agnostic:
   every key in the baseline must be present in the current run, and
   every metric is lower-is-better (times, per-record costs, overhead
   ratios — the shape of BENCH_runtime.json / BENCH_service.json), so
   current <= (1 + PCT/100) * baseline must hold for each.

   Exit 0 when all gates hold, 1 with one line per violation, 2 on
   unreadable/malformed input. The parser is deliberately minimal: it
   accepts exactly the flat shape the bench writes, which keeps this
   executable dependency-free. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg -> die "bench_gate: %s" msg

(* Parse {"k": v, ...} with numeric values into an assoc list. *)
let parse_flat_json path s =
  let fail () = die "bench_gate: %s: not a flat numeric JSON object" path in
  let s = String.trim s in
  let len = String.length s in
  if len < 2 || s.[0] <> '{' || s.[len - 1] <> '}' then fail ();
  let body = String.trim (String.sub s 1 (len - 2)) in
  if body = "" then []
  else
    List.map
      (fun field ->
        match String.index_opt field ':' with
        | None -> fail ()
        | Some i ->
            let key = String.trim (String.sub field 0 i) in
            let klen = String.length key in
            if klen < 2 || key.[0] <> '"' || key.[klen - 1] <> '"' then fail ();
            let key = String.sub key 1 (klen - 2) in
            let value =
              String.trim
                (String.sub field (i + 1) (String.length field - i - 1))
            in
            (match float_of_string_opt value with
            | Some v -> (key, v)
            | None -> fail ()))
      (String.split_on_char ',' body)

let get path fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> die "bench_gate: %s: missing field %S" path key

let usage () =
  die "usage: bench_gate [--max-regress PCT] BASELINE.json CURRENT.json"

let () =
  let rec parse regress = function
    | "--max-regress" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p >= 0.0 -> parse (Some p) rest
        | _ -> die "bench_gate: --max-regress expects a non-negative number")
    | [ b; c ] -> (regress, b, c)
    | _ -> usage ()
  in
  let max_regress, baseline_path, current_path =
    parse None (List.tl (Array.to_list Sys.argv))
  in
  let baseline = parse_flat_json baseline_path (read_file baseline_path) in
  let current = parse_flat_json current_path (read_file current_path) in
  let b key = get baseline_path baseline key in
  let c key = get current_path current key in
  let violations = ref [] in
  let check cond fmt =
    Printf.ksprintf
      (fun msg -> if not cond then violations := msg :: !violations)
      fmt
  in
  let ok fmt = Printf.printf fmt in
  (match max_regress with
  | Some pct ->
      (* Generic lower-is-better gate over every baseline metric. *)
      let allowed = 1.0 +. (pct /. 100.0) in
      List.iter
        (fun (key, bv) ->
          match List.assoc_opt key current with
          | None ->
              check false "current run is missing baseline metric %S" key
          | Some cv ->
              check
                (cv <= allowed *. bv)
                "%s regressed more than %g%%: %.4g vs baseline %.4g" key pct cv
                bv)
        baseline;
      if !violations = [] then
        ok "bench_gate: ok (%d metric(s) within %g%% of baseline)\n"
          (List.length baseline) pct
  | None ->
      check
        (c "agree" = c "instances")
        "verdict agreement %.0f/%.0f: the numeric tier disagreed with the \
         exact solver"
        (c "agree") (c "instances");
      check
        (c "speedup" >= 10.0)
        "speedup %.2fx below the 10x floor" (c "speedup");
      check
        (c "speedup" >= 0.8 *. b "speedup")
        "speedup regressed more than 20%%: %.2fx vs baseline %.2fx"
        (c "speedup") (b "speedup");
      check
        (c "certified_rate" >= 0.8 *. b "certified_rate")
        "certification rate regressed more than 20%%: %.2f vs baseline %.2f"
        (c "certified_rate") (b "certified_rate");
      if !violations = [] then
        ok
          "bench_gate: ok (speedup %.2fx, certified_rate %.2f, agreement \
           %.0f/%.0f)\n"
          (c "speedup") (c "certified_rate") (c "agree") (c "instances"));
  match !violations with
  | [] -> ()
  | vs ->
      List.iter (fun v -> Printf.eprintf "bench_gate: FAIL: %s\n" v) vs;
      exit 1
