let hom_preorder db entities =
  let ents = Array.of_list entities in
  let n = Array.length ents in
  let m = Array.make_matrix n n false in
  let known = Array.make_matrix n n false in
  let set i j v =
    if not known.(i).(j) then begin
      known.(i).(j) <- true;
      m.(i).(j) <- v
    end
  in
  (* [i → j] holds: record it with the arcs it forces by transitivity *)
  let holds i j =
    if not known.(i).(j) then begin
      set i j true;
      for l = 0 to n - 1 do
        Budget.tick ~what:"cq sep: hom preorder closure" ();
        if known.(j).(l) && m.(j).(l) then set i l true;
        if known.(l).(i) && m.(l).(i) then set l j true
      done
    end
  in
  let index =
    Array.fold_left
      (fun (acc, j) e ->
        let js = Option.value ~default:[] (Elem.Map.find_opt e acc) in
        (Elem.Map.add e (j :: js) acc, j + 1))
      (Elem.Map.empty, 0) ents
    |> fst
  in
  (* The homomorphism preorder is reflexive and transitive; settle
     forced arcs before running searches, as in Cover_game.preorder. *)
  (* cqlint: allow R1 — reflexive pass bounded by the entity count *)
  for i = 0 to n - 1 do
    set i i true
  done;
  (* Every search runs on one context over (db, db). A homomorphism [h]
     found for [i → j] also witnesses [e → h(e)] for every entity [e],
     so each one found settles a whole row of arcs. *)
  let ctx = Hom.context ~src:db ~dst:db in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Budget.tick ~what:"cq sep: hom preorder" ();
      if not known.(i).(j) then
        match Hom.find_ctx ctx ~fix:[ (ents.(i), ents.(j)) ] with
        | None -> set i j false
        | Some h ->
            holds i j;
            Array.iteri
              (fun i' e ->
                match Elem.Map.find_opt e h with
                | Some b ->
                    List.iter (holds i')
                      (Option.value ~default:[] (Elem.Map.find_opt b index))
                | None -> ())
              ents
    done
  done;
  m

(* Deciding, generating and classifying against the same training all
   start from the same hom preorder — the expensive part — so keep the
   last chain, keyed by physical identity of the training value. The
   cache is published only after [build] completes: an abort mid-way
   (budget, chaos) can never leave a partial chain behind. *)
let chain_cache : (Labeling.training * Preorder_chain.t) option ref = ref None

let () =
  Runtime_state.register ~name:"cq_sep.chain_cache" (fun () ->
      chain_cache := None)

let chain (t : Labeling.training) =
  match !chain_cache with
  | Some (t0, ch) when t0 == t -> ch
  | _ ->
      let entities = Array.of_list (Db.entities t.db) in
      let matrix = hom_preorder t.db (Array.to_list entities) in
      let ch = Preorder_chain.build ~entities ~matrix in
      chain_cache := Some (t, ch);
      ch

let inseparable_witness t =
  match Preorder_chain.consistent_labels (chain t) t.Labeling.labeling with
  | Ok _ -> None
  | Error pair -> Some pair

let separable t = inseparable_witness t = None

let generate ?(minimize = false) (t : Labeling.training) =
  let ch = chain t in
  match Preorder_chain.consistent_labels ch t.labeling with
  | Error _ -> None
  | Ok labels ->
      let feature rep =
        let q = Cq.of_pointed_db (t.db, rep) in
        if minimize then Cq.core q else q
      in
      let stat = List.map feature (Array.to_list ch.Preorder_chain.reps) in
      Some (stat, Preorder_chain.classifier ch labels)

let classify (t : Labeling.training) eval_db =
  let ch = chain t in
  match Preorder_chain.consistent_labels ch t.labeling with
  | Error _ ->
      invalid_arg "Cq_sep.classify: training database is not CQ-separable"
  | Ok labels ->
      let ctx = Hom.context ~src:t.db ~dst:eval_db in
      let arrow rep f = Hom.find_ctx ctx ~fix:[ (rep, f) ] <> None in
      List.fold_left
        (fun acc (f, l) -> Labeling.set f l acc)
        Labeling.empty
        (Preorder_chain.classify ~arrow ch labels (Db.entities eval_db))

let apx_relabel (t : Labeling.training) =
  let ch = chain t in
  let labels, disagreement = Preorder_chain.majority_labels ch t.labeling in
  let relabeling =
    Array.to_list ch.Preorder_chain.members
    |> List.mapi (fun i cls -> List.map (fun e -> (e, labels.(i))) cls)
    |> List.concat |> Labeling.of_list
  in
  (relabeling, disagreement)

let apx_separable ~eps (t : Labeling.training) =
  let _, disagreement = apx_relabel t in
  let n = List.length (Db.entities t.db) in
  (* separable with error eps iff disagreement ≤ eps·n *)
  Rat.compare (Rat.of_int disagreement) (Rat.mul eps (Rat.of_int n)) <= 0

(* --- the graceful-degradation ladder ---------------------------------- *)

let default_budget = function Some b -> b | None -> Budget.installed ()

type provenance =
  | Exact
  | Degraded of Language.t
  | Approximate of Rat.t
  | Gave_up of Guard.failure

type ladder_result = { answer : bool option; provenance : provenance }

let pp_provenance fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Degraded lang ->
      Format.fprintf fmt "degraded to %s" (Language.to_string lang)
  | Approximate slack ->
      Format.fprintf fmt "approximate (slack %s)" (Rat.to_string slack)
  | Gave_up f -> Format.fprintf fmt "gave up: %s" (Guard.failure_to_string f)

let decide_with_fallback ?budget ?(degrade = true) ?(runner = Guard.runner) t
    =
  let b = default_budget budget in
  (* One absolute deadline bounds the whole ladder; fuel is refilled
     per rung so a failed exact attempt does not starve the cheaper
     fallbacks. The runner decides how each rung executes: in-process
     Guard.run (default), a forked worker (Isolate.runner), or either
     wrapped in a retry policy (Guard.retrying). *)
  let attempt f = runner.Guard.run (Budget.refresh b) f in
  let rung_separable m = attempt (fun () -> Atoms_sep.separable ~m t) in
  (* Final rung: minimal training error achievable with CQ[1]
     features, reported as a misclassified fraction. A slack of zero
     certifies CQ-separability (CQ[1] ⊆ CQ); positive slack is a
     best-effort lower signal, not a refutation. *)
  let slack_of me =
    let n = List.length (Db.entities t.Labeling.db) in
    match me with
    | Some (err, _, _) -> Rat.of_ints err (max n 1)
    | None -> Rat.one
  in
  let slack_rung () =
    match attempt (fun () -> slack_of (Atoms_sep.min_errors ~m:1 t)) with
    | Ok slack ->
        { answer = Some (Rat.is_zero slack); provenance = Approximate slack }
    | Error f -> { answer = None; provenance = Gave_up f }
  in
  (* cqlint: allow R1 — recursion bounded by the rung list *)
  let rec down = function
    | [] -> slack_rung ()
    | m :: rest -> begin
        match rung_separable m with
        | Ok ans ->
            {
              answer = Some ans;
              provenance = Degraded (Language.Cq_atoms { m; p = None });
            }
        | Error f when Guard.is_resource_failure f -> down rest
        | Error f -> { answer = None; provenance = Gave_up f }
      end
  in
  match attempt (fun () -> separable t) with
  | Ok ans -> { answer = Some ans; provenance = Exact }
  | Error f when (not degrade) || not (Guard.is_resource_failure f) ->
      { answer = None; provenance = Gave_up f }
  | Error _ -> down [ 3; 2; 1 ]
