(* Numeric-first linear separation with an exact-certification spine.

   The pipeline per decision:

     precheck (exact, cheap)
       └─ consistency + trivial shapes, answered with exact proofs
     CG logistic fit (float)               ── candidate hyperplane
       └─ float margin screen ─ Certify.hyperplane (exact)
     float simplex (float)                 ── candidate point / Farkas rows
       └─ conditioning + margin guards ─ Certify.hyperplane / .farkas
     exact simplex (Halfspace.separable)   ── escalation of last resort

   The invariant the whole module is built around: a [Sep]/[Unsep]
   verdict is returned only with an exact proof in hand — either a
   Certify verdict or the exact solver's own answer. Float arithmetic
   decides *how fast* we get there and *whether we escalate*, never
   *what* the answer is. With [~escalate:false] the exact re-solve is
   withheld and a failed certification surfaces as [Unknown] instead —
   that is what the ladder rung and the [--numeric-only] CLI path use. *)

type tier = Exact_only | Numeric

(* Ambient default tier; the CLI's --exact-only flips it. Registered so
   chaos runs restore the default between seeds. *)
let ambient_tier = ref Numeric

type provenance =
  | Certified_cg  (* CG candidate, exact hyperplane certificate *)
  | Certified_simplex  (* float simplex candidate, exact certificate *)
  | Certified_precheck  (* answered by the exact consistency precheck *)
  | Exact_solve of string  (* exact simplex ran; the reason why *)
  | Uncertified of string  (* numeric failed and escalation was off *)

type verdict =
  | Sep of Halfspace.classifier
  | Unsep
  | Unknown of string  (* only with [~escalate:false] *)

type answer = { verdict : verdict; provenance : provenance }

type stats = {
  decided : int;
  certified_cg : int;
  certified_simplex : int;
  certified_precheck : int;
  exact_solves : int;
  escalations : int;  (* exact solves entered from a failed numeric tier *)
  uncertified : int;
}

(* Mutable counters behind the immutable snapshot. All increments for
   one decision happen adjacently with no tick in between, so an abort
   can lose a whole decision but never tear one: the validate below
   holds at every tick site. *)
let s_decided = ref 0
let s_cg = ref 0
let s_simplex = ref 0
let s_precheck = ref 0
let s_exact = ref 0
let s_escalations = ref 0
let s_uncertified = ref 0

let () =
  Runtime_state.register ~name:"nsep.tier" ~kind:`Config (fun () ->
      ambient_tier := Numeric)

let () =
  Runtime_state.register ~name:"nsep.stats"
    ~validate:(fun () ->
      !s_decided >= 0 && !s_escalations >= 0
      && !s_escalations <= !s_exact
      && !s_decided = !s_cg + !s_simplex + !s_precheck + !s_exact + !s_uncertified)
    (fun () ->
      s_decided := 0;
      s_cg := 0;
      s_simplex := 0;
      s_precheck := 0;
      s_exact := 0;
      s_escalations := 0;
      s_uncertified := 0)

let stats () =
  {
    decided = !s_decided;
    certified_cg = !s_cg;
    certified_simplex = !s_simplex;
    certified_precheck = !s_precheck;
    exact_solves = !s_exact;
    escalations = !s_escalations;
    uncertified = !s_uncertified;
  }

let bump ?(escalated = false) prov =
  incr s_decided;
  (match prov with
  | Certified_cg -> incr s_cg
  | Certified_simplex -> incr s_simplex
  | Certified_precheck -> incr s_precheck
  | Exact_solve _ -> incr s_exact
  | Uncertified _ -> incr s_uncertified);
  if escalated then incr s_escalations

let set_tier t = ambient_tier := t
let current_tier () = !ambient_tier

(* Deterministic escalation guards for the float tier. *)
let min_margin_width = 1e-6

let float_margin_gap ~weights groups =
  (* Separation gap of the weight direction alone: smallest positive
     margin minus largest negative margin. The threshold is left out
     on purpose — Certify.hyperplane re-derives it exactly, so only
     the direction's gap matters. A non-positive gap means no
     threshold can work; a tiny gap means certification would hinge
     on round-off-sized differences, which the width guard treats as
     an escalation signal. One-sided inputs read as [infinity]. *)
  let d = Array.length weights in
  let min_pos = ref infinity in
  let max_neg = ref neg_infinity in
  List.iter
    (fun (pos, _neg, vec) ->
      Budget.tick ~what:"nsep: margin screen" ();
      let m = ref 0.0 in
      (* cqlint: allow R1 — dot product bounded by the feature dimension *)
      for j = 0 to d - 1 do
        m := !m +. (weights.(j) *. float_of_int vec.(j))
      done;
      if pos > 0 then min_pos := Float.min !min_pos !m
      else max_neg := Float.max !max_neg !m)
    groups;
  !min_pos -. !max_neg

let reduced_examples groups =
  List.map
    (fun (pos, _neg, vec) ->
      Budget.tick ~what:"nsep: group representative" ();
      {
        Halfspace.vec;
        label = (if pos > 0 then Labeling.Pos else Labeling.Neg);
      })
    groups

(* The float tier proper: try CG then the float simplex on the reduced
   (consistent, deduplicated) examples; return a certified verdict or
   the reason certification could not finish. *)
let numeric_attempt ~n groups reduced =
  let xs =
    Array.of_list
      (List.map
         (fun ex ->
           Budget.tick ~what:"nsep: float row" ();
           Array.map float_of_int ex.Halfspace.vec)
         reduced)
  in
  let ys =
    Array.of_list
      (List.map
         (fun ex ->
           match ex.Halfspace.label with
           | Labeling.Pos -> 1.0
           | Labeling.Neg -> -1.0)
         reduced)
  in
  let cg_config = { Cg.default_config with max_iters = 60; l2 = 1e-4 } in
  let cg_verdict =
    let f = Cg.fit ~config:cg_config ~xs ~ys () in
    if float_margin_gap ~weights:f.Cg.weights groups <= 0.0 then
      Certify.Inconclusive "cg: candidate does not separate in float"
    else Certify.hyperplane ~weights:f.Cg.weights reduced
  in
  match cg_verdict with
  | Certify.Certified c -> Ok (Sep c, Certified_cg)
  | Certify.Refuted _ | Certify.Inconclusive _ -> begin
      (* Same LP encoding as the exact solver, in floats. *)
      let nvars = n + 1 in
      let rows =
        List.map
          (fun ex ->
            Budget.tick ~what:"nsep: lp row" ();
            let coeffs =
              Array.init nvars (fun i ->
                  if i < n then float_of_int ex.Halfspace.vec.(i) else -1.0)
            in
            match ex.Halfspace.label with
            | Labeling.Pos -> { Fsimplex.coeffs; op = Simplex.Ge; rhs = 0.0 }
            | Labeling.Neg -> { Fsimplex.coeffs; op = Simplex.Le; rhs = -1.0 })
          reduced
      in
      match Fsimplex.feasible ~nvars ~rows () with
      | Fsimplex.Feasible (x, q) ->
          if not (Fsimplex.well_conditioned q) then
            Error "fsimplex: conditioning guard tripped"
          else begin
            let weights = Array.sub x 0 n in
            if float_margin_gap ~weights groups < min_margin_width then
              Error "fsimplex: margin-width guard tripped"
            else
              match Certify.hyperplane ~weights reduced with
              | Certify.Certified c -> Ok (Sep c, Certified_simplex)
              | (Certify.Refuted _ | Certify.Inconclusive _) as v ->
                  Error
                    ("fsimplex point not certified: "
                    ^ Certify.verdict_label v)
          end
      | Fsimplex.Infeasible (mu, q) ->
          if not (Fsimplex.well_conditioned q) then
            Error "fsimplex: conditioning guard tripped"
          else begin
            match Certify.farkas ~mu reduced with
            | Certify.Certified () -> Ok (Unsep, Certified_simplex)
            | (Certify.Refuted _ | Certify.Inconclusive _) as v ->
                Error
                  ("fsimplex farkas not certified: " ^ Certify.verdict_label v)
          end
    end

let exact_solve reason ~escalated reduced =
  match Halfspace.separable reduced with
  | Some c ->
      bump ~escalated (Exact_solve reason);
      { verdict = Sep c; provenance = Exact_solve reason }
  | None ->
      bump ~escalated (Exact_solve reason);
      { verdict = Unsep; provenance = Exact_solve reason }

let decide ?tier ?(escalate = true) examples =
  let tier = match tier with Some t -> t | None -> !ambient_tier in
  match examples with
  | [] ->
      bump Certified_precheck;
      {
        verdict = Sep { Halfspace.weights = [||]; threshold = Rat.zero };
        provenance = Certified_precheck;
      }
  | ex0 :: _ -> begin
      let n = Array.length ex0.Halfspace.vec in
      let groups = Halfspace.group_by_vector examples in
      if List.exists (fun (pos, neg, _) -> pos > 0 && neg > 0) groups then begin
        (* Two identical vectors with opposite labels: exactly
           inseparable, no solver needed. *)
        bump Certified_precheck;
        { verdict = Unsep; provenance = Certified_precheck }
      end
      else begin
        let reduced = reduced_examples groups in
        let all_pos = List.for_all (fun (_, neg, _) -> neg = 0) groups in
        let all_neg = List.for_all (fun (pos, _, _) -> pos = 0) groups in
        if all_pos || all_neg then begin
          (* One-sided collections: a constant classifier separates.
             Σ 0·b = 0, so threshold 0 labels everything Pos and
             threshold 1 labels everything Neg — exact by inspection. *)
          bump Certified_precheck;
          let threshold = if all_pos then Rat.zero else Rat.one in
          {
            verdict = Sep { Halfspace.weights = Array.make n Rat.zero; threshold };
            provenance = Certified_precheck;
          }
        end
        else begin
          match tier with
          | Exact_only -> exact_solve "exact-only tier" ~escalated:false reduced
          | Numeric -> begin
              match numeric_attempt ~n groups reduced with
              | Ok (verdict, prov) ->
                  bump prov;
                  { verdict; provenance = prov }
              | Error reason ->
                  if escalate then exact_solve reason ~escalated:true reduced
                  else begin
                    bump (Uncertified reason);
                    {
                      verdict = Unknown reason;
                      provenance = Uncertified reason;
                    }
                  end
            end
        end
      end
    end

let decide_with_fallback ?budget ?(runner = Guard.runner) ?tier examples =
  let b = match budget with Some b -> b | None -> Budget.installed () in
  (* One deadline for the ladder, fuel refilled per rung — mirroring
     Cq_sep.decide_with_fallback. The numeric rung runs with
     escalation off so a certification failure falls through to the
     exact rung under its own fresh fuel. *)
  let attempt f = runner.Guard.run (Budget.refresh b) f in
  let exact () = attempt (fun () -> decide ~tier:Exact_only examples) in
  match (match tier with Some t -> t | None -> !ambient_tier) with
  | Exact_only -> exact ()
  | Numeric -> begin
      match attempt (fun () -> decide ~tier:Numeric ~escalate:false examples) with
      | Ok ({ verdict = Sep _ | Unsep; _ } as a) -> Ok a
      | Ok { verdict = Unknown _; _ } -> exact ()
      | Error f when Guard.is_resource_failure f -> exact ()
      | Error f -> Error f
    end

let separable examples =
  match (decide examples).verdict with
  | Sep c -> Some c
  | Unsep -> None
  | Unknown _ ->
      (* decide with escalation on cannot answer Unknown. *)
      assert false

let is_separable examples = separable examples <> None
