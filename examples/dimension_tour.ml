(* A tour of the dimension phenomena of Sections 6 and 8:

   1. Example 6.2 — separable, but not with one feature.
   2. The loop-terminated chain — the linear family of Prop 8.6: CQ
      indicator sets form a chain, and alternating labels force the
      dimension to grow without bound (Thm 8.7 / Thm 5.7(a)).
   3. FO, by contrast, collapses to one feature (Prop 8.1), and so does
      every FO_k (Cor 8.5).
   4. Bounded-dimension feature generation: materialize an actual
      2-feature statistic via QBE explanations.

   Run with: dune exec examples/dimension_tour.exe *)

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  section "1. Example 6.2: dimension matters";
  let t = Families.example_62 () in
  List.iter
    (fun d ->
      Printf.printf "CQ-separable with at most %d feature(s): %b\n" d
        (Cqfeat.separable ~dim:d Language.Cq_all t))
    [ 1; 2 ];

  section "2. The chain family: unbounded dimension (Thm 8.7)";
  List.iter
    (fun m ->
      let chain = Families.ghw_dimension_family m in
      let n = List.length (Db.entities chain.Labeling.db) in
      (* Indicator sets of GHW(1) features on the chain are the
         up-sets, realized by backward-path queries. *)
      let backward_path s =
        let v i =
          if i = 0 then Cq.default_free else Elem.sym (Printf.sprintf "y%d" i)
        in
        Cq.make ~free:Cq.default_free
          (List.init s (fun i -> Fact.make_l "E" [ v (i + 1); v i ]))
      in
      let qs = List.init (2 * m) backward_path in
      Printf.printf
        "chain with %d entities: CQ indicator family is linear: %b; " n
        (Fo_dimension.family_is_linear ~queries:qs
           ~db:chain.Labeling.db);
      let sets =
        List.filter
          (fun s -> not (Elem.Set.is_empty s))
          (Fo_dimension.indicator_family ~queries:qs ~db:chain.Labeling.db)
      in
      match Dim_sep.witness_with_sets ~dim:(List.length sets) ~sets chain with
      | Some (chosen, _) ->
          Printf.printf "minimal dimension %d\n" (List.length chosen)
      | None -> print_endline "not separable (unexpected)")
    [ 1; 2; 3 ];

  section "3. FO and FO_k collapse to one feature";
  let t2 = Families.two_path_gadget 3 in
  Printf.printf "FO-separable: %b = FO-separable with 1 feature: %b\n"
    (Cqfeat.separable Language.Fo t2)
    (Cqfeat.separable ~dim:1 Language.Fo t2);
  Printf.printf "FO_2-separable: %b = FO_2-separable with 1 feature: %b\n"
    (Cqfeat.separable (Language.Fo_k 2) t2)
    (Cqfeat.separable ~dim:1 (Language.Fo_k 2) t2);

  section "4. Bounded-dimension generation (QBE explanations)";
  match Cqfeat.generate ~dim:2 Language.Cq_all t with
  | None -> print_endline "generation failed (unexpected)"
  | Some (stat, c) ->
      List.iteri
        (fun i q -> Printf.printf "q%d: %s\n" (i + 1) (Cq.to_string q))
        stat;
      Printf.printf "training errors: %d\n" (Statistic.errors stat c t)
