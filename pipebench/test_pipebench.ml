(* The benchmark's own checks: trace arithmetic and input determinism. *)

let span ?(parent = 0) id name start stop =
  { Trace.id; parent; req = 0; name; start; stop }

let close = Alcotest.float 1e-9

let self_nested () =
  (* a [0,10] encloses b [1,4] and c [5,9]; b encloses d [2,3]. *)
  let spans =
    [
      span 1 "a" 0. 10.;
      span ~parent:1 2 "b" 1. 4.;
      span ~parent:2 3 "d" 2. 3.;
      span ~parent:1 4 "c" 5. 9.;
    ]
  in
  let self = Trace.self_times spans in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c"; "d" ] (List.map fst self);
  List.iter2
    (fun (name, want) (_, got) -> Alcotest.check close name want got)
    [ ("a", 3.); ("b", 2.); ("c", 4.); ("d", 1.) ]
    self;
  Alcotest.check close "self times add up to the root" 10.
    (List.fold_left (fun acc (_, t) -> acc +. t) 0. self)

let self_repeated_and_reparented () =
  (* Two spans of one name add up; a re-measured child recorded after
     its parent closed (see [Trace.under]) still comes off the parent's
     self time. *)
  let spans =
    [
      span 1 "serve" 0. 5.;
      span ~parent:1 2 "key" 6. 7.5;
      span 3 "serve" 10. 12.;
    ]
  in
  let self = Trace.self_times spans in
  Alcotest.check close "serve" 5.5 (List.assoc "serve" self);
  Alcotest.check close "key" 1.5 (List.assoc "key" self)

let recorded_spans () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> ()));
  let outer = Trace.last_closed () in
  Trace.under outer (fun () -> Trace.span "later" ignore);
  Trace.count "n" 2.;
  Trace.count "n" 3.;
  Trace.enabled := false;
  Trace.span "off" ignore;
  Trace.count "n" 100.;
  let spans = Trace.spans () in
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  Alcotest.(check (list string)) "order" [ "inner"; "outer"; "later" ]
    (List.map (fun s -> s.Trace.name) spans);
  Alcotest.(check int) "inner under outer" (find "outer").id (find "inner").parent;
  Alcotest.(check int) "later under outer" (find "outer").id (find "later").parent;
  Alcotest.(check int) "outer at top" 0 (find "outer").parent;
  Alcotest.check close "counter ignores disabled counts" 5. (Trace.counter "n")

let unattributed () =
  Alcotest.check close "quarter" 0.25
    (Trace.unattributed_share ~wall:8. [ ("a", 4.); ("b", 2.) ]);
  Alcotest.check close "none" 0. (Trace.unattributed_share ~wall:6. [ ("a", 6.) ])

let tail_rule () =
  let samples n = List.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check bool) "ten samples have no tail" true (Trace.tail (samples 10) = None);
  Alcotest.(check (option (pair close close)))
    "eleven: the minimum, ten above it" (Some (1., 100. /. 11.)) (Trace.tail (samples 11));
  Alcotest.(check (option (pair close close)))
    "hundred: p90" (Some (90., 90.)) (Trace.tail (samples 100));
  Alcotest.(check (option (pair close close)))
    "thousand: p99" (Some (990., 99.)) (Trace.tail (samples 1000));
  Alcotest.check close "odd median" 2. (Trace.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Trace.median [ 4.; 1.; 3.; 2. ])

let same_seed_same_bytes () =
  let texts (i : Inputs.instance) = (i.train_text, i.heldout_text, i.noisy) in
  let check name a b = Alcotest.(check (triple string string bool)) name a b in
  check "cqm_train" (texts (Inputs.cqm_instance ~seed:7 4)) (texts (Inputs.cqm_instance ~seed:7 4));
  check "structural"
    (texts (Inputs.structural_instance ~seed:7 3))
    (texts (Inputs.structural_instance ~seed:7 3));
  Alcotest.(check (pair (array string) string))
    "serve_mix" (Inputs.serving ~models:3 ~seed:7) (Inputs.serving ~models:3 ~seed:7);
  Alcotest.(check bool) "serving models differ" false
    (let texts, _ = Inputs.serving ~models:2 ~seed:7 in
     texts.(0) = texts.(1));
  Alcotest.(check bool) "another seed differs" false
    (texts (Inputs.cqm_instance ~seed:7 4) = texts (Inputs.cqm_instance ~seed:8 4));
  Alcotest.(check bool) "another instance differs" false
    (texts (Inputs.cqm_instance ~seed:7 3) = texts (Inputs.cqm_instance ~seed:7 4));
  Alcotest.(check bool) "every fifth cqm instance is noisy" true
    (List.init 10 (fun i -> (Inputs.cqm_instance ~seed:1 i).noisy)
    = List.init 10 (fun i -> i mod 5 = 4))

let () =
  Alcotest.run "pipebench"
    [
      ( "trace",
        [
          Alcotest.test_case "self time under nested spans" `Quick self_nested;
          Alcotest.test_case "self time of repeated and re-parented spans" `Quick
            self_repeated_and_reparented;
          Alcotest.test_case "recording" `Quick recorded_spans;
          Alcotest.test_case "unattributed share" `Quick unattributed;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
        ] );
      ("inputs", [ Alcotest.test_case "same seed, same bytes" `Quick same_seed_same_bytes ]);
    ]
