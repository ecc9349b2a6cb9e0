(* End-to-end pipeline benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs workload W (cqm_train, serve_mix or structural) on inputs made
   from seed N for S seconds and prints, as the last line of standard
   output, one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1. Exits 1 when the oracle finds a
   mismatch, 2 on bad arguments or a failed setup. Times are scaled to
   a nominal host speed, measured by a reference kernel timed between
   operations (see Pipeline), so that a shared host's drift in speed
   cancels out. Scratch files (the
   model store) live under .pipebench-run/ in the working directory
   and are removed on exit. *)

let layer_spans =
  [
    "textfmt";
    "cq_enum";
    "eval_engine.plan";
    "eval_engine.columns";
    "atoms_sep.dedupe";
    "statistic.examples";
    "statistic.vector";
    "nsep";
    "linsep.min_errors";
    "model_io.save";
    "model_store.publish";
    "serve.classify";
    "neighborhood.key";
    "ghw_sep.chain";
    "ghw_sep.classify";
    "cq_sep.hom_preorder";
    "preorder_chain";
  ]

let layer_counts =
  [
    "cq_enum.features";
    "eval_engine.columns";
    "eval_engine.plan_acyclic";
    "eval_engine.plan_decomposed";
    "eval_engine.plan_hom";
    "nsep.decided";
    "nsep.certified_cg";
    "nsep.certified_simplex";
    "nsep.certified_precheck";
    "nsep.exact_solves";
    "nsep.escalations";
    "model_io.bytes";
    "neighborhood.keys";
    "serve.cold_entities";
    "serve.shed";
    "serve.failed";
    "eval_cache.evictions";
    "eval_cache.flips";
    "cq_sep.hom_pairs";
  ]

(* "cq_enum" -> "cq_enum.self_ms"; "eval_engine.columns" ->
   "eval_engine.columns_self_ms". *)
let self_metric span =
  if String.contains span '.' then span ^ "_self_ms" else span ^ ".self_ms"

let ratio a b = if b = 0. then 0. else a /. b

let end_to_end (r : Pipeline.run) =
  let tail name xs =
    match Trace.tail xs with
    | Some (v, pct) ->
        Printf.eprintf "pipebench: %s: %d samples, tail at p%.1f\n" name
          (List.length xs) pct;
        v
    | None -> failwith (name ^ ": fewer than 11 samples")
  in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  Printf.eprintf "pipebench: %d reference samples, times scaled by %.4f\n"
    (List.length r.reference) (Pipeline.run_scale r);
  [
    ("setup_s", Trace.median r.setup, "s");
    ("train_p50_s", Trace.median r.train, "s");
    ("train_tail_s", tail "train" r.train, "s");
    ("classify_p50_ms", 1e3 *. Trace.median r.classify, "ms");
    ("classify_tail_ms", 1e3 *. tail "classify" r.classify, "ms");
    ("classify_per_s", float_of_int r.classified /. r.serving_s, "1/s");
    ("heldout_acc", mean r.acc, "ratio");
    ("heap_peak_mb", float_of_int heap /. 1048576., "MB");
  ]

let per_layer (r : Pipeline.run) =
  let iters = float_of_int r.traced_iters in
  let self = Trace.self_times (Trace.spans ()) in
  let self_of span = Option.value ~default:0. (List.assoc_opt span self) in
  let shares =
    List.sort (fun (_, a) (_, b) -> Float.compare b a)
      (List.map (fun (s, t) -> (s, t /. r.traced_wall)) self)
  in
  List.iter (fun (s, x) -> Printf.eprintf "pipebench: %-22s %5.1f%%\n" s (100. *. x)) shares;
  let scale = Pipeline.run_scale r in
  List.map (fun s -> (self_metric s, scale *. 1e3 *. self_of s /. iters, "ms/iter")) layer_spans
  @ List.map (fun c -> (c, Trace.counter c /. iters, "count/iter")) layer_counts
  @ [
      ( "atoms_sep.kept_ratio",
        ratio (Trace.counter "atoms_sep.kept") (Trace.counter "cq_enum.features"),
        "ratio" );
      ( "eval_cache.hit_ratio",
        ratio (Trace.counter "eval_cache.hits") (Trace.counter "eval_cache.lookups"),
        "ratio" );
      ("trace.unattributed_share", Trace.unattributed_share ~wall:r.traced_wall self, "ratio");
      ( "trace.overhead_share",
        ratio r.traced_wall iters
        /. ratio r.untraced_wall (float_of_int r.untraced_iters)
        -. 1.,
        "ratio" );
      ("trace.iterations", iters, "count");
    ]

(* A vCPU coming out of idle ran about 60% slower for its first ~3 s of
   load on the 2-vCPU VM this benchmark was tuned on, so spin before
   anything is timed. *)
let warm_up seconds =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    for i = 1 to 10_000 do
      x := !x + (i * i)
    done
  done;
  ignore (Sys.opaque_identity !x)

let json_number x =
  if not (Float.is_finite x) then failwith "non-finite metric";
  Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cqm_train | serve_mix | structural");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let dir = Filename.concat ".pipebench-run" (string_of_int (Unix.getpid ())) in
  let run =
    match !workload with
    | "cqm_train" -> Pipeline.cqm_train ~dir
    | "serve_mix" -> Pipeline.serve_mix ~dir
    | "structural" -> Pipeline.structural
    | w ->
        prerr_endline ("pipebench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let r = Pipeline.new_run () in
  warm_up 3.;
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ Filename.dirname dir; dir ];
  (match
     Fun.protect
       ~finally:(fun () ->
         Pipeline.remove_tree dir;
         try Unix.rmdir ".pipebench-run" with Unix.Unix_error _ -> ())
       (fun () ->
         run r ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
         if !trace = 1 then per_layer r else end_to_end r)
   with
  | metrics ->
      let body =
        List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics
      in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (r.mismatches = 0) r.attempted r.failed (String.concat ", " body);
      exit (if r.mismatches = 0 then 0 else 1)
  | exception e ->
      prerr_endline ("pipebench: " ^ Printexc.to_string e);
      exit 2)
