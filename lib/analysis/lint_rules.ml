(* The rule implementations walk the Parsetree with [Ast_iterator].
   Pattern matching is restricted to constructors that are stable
   across the 4.14..5.x Parsetree (no [Pexp_fun]/[Pexp_function],
   whose shape changed in 5.2): traversal is always delegated to
   [default_iterator], and function bodies are inspected by subtree
   containment rather than by peeling parameter nodes. *)

open Parsetree

let last_of = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply _ -> ""

(* All identifier paths occurring in an expression subtree. *)
let iter_idents f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_ident { txt; _ } -> f txt
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.expr it e

let expr_mentions pred e =
  let found = ref false in
  iter_idents (fun lid -> if pred lid then found := true) e;
  !found

let is_budget_tick = function
  | Longident.Ldot (Longident.Lident "Budget", "tick") -> true
  | _ -> false

(* --- R1: budget discipline ------------------------------------------- *)

(* Names of let-bound values (at any depth) whose right-hand side
   contains a [Budget.tick] call. Used for the one-level closure: a
   loop that calls such a function ticks through it. A binding whose
   rhs merely *defines* an inner ticking function is over-approximated
   as ticking — acceptable for a linter (the miss is in the quiet
   direction and rare in this codebase). *)
let direct_tickers structure =
  let tickers = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } when expr_mentions is_budget_tick vb.pvb_expr
            ->
              Hashtbl.replace tickers txt ()
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it structure;
  tickers

let ticks_ok tickers e =
  let ok = ref false in
  iter_idents
    (fun lid ->
      if is_budget_tick lid then ok := true
      else
        match lid with
        | Longident.Lident s when Hashtbl.mem tickers s -> ok := true
        | _ -> ())
    e;
  !ok

let r1_budget (src : Lint_source.t) =
  match src.ast with
  | Intf _ -> []
  | Impl structure ->
      let tickers = direct_tickers structure in
      let findings = ref [] in
      let keys = Hashtbl.create 16 in
      let fresh_key base =
        let n =
          match Hashtbl.find_opt keys base with Some n -> n + 1 | None -> 1
        in
        Hashtbl.replace keys base n;
        if n = 1 then base else Printf.sprintf "%s#%d" base n
      in
      let report ~loc ~key msg =
        findings :=
          Lint_finding.make ~rule:Lint_finding.R1 ~file:src.path ~loc
            ~key:(fresh_key key) msg
          :: !findings
      in
      (* Stack of enclosing binding names, for loop labels. *)
      let context = ref [] in
      let enclosing () =
        match !context with [] -> "<toplevel>" | name :: _ -> name
      in
      let check_loop ~loc kind body =
        if not (ticks_ok tickers body) then
          report ~loc
            ~key:(Printf.sprintf "%s@%s" kind (enclosing ()))
            (Printf.sprintf
               "%s loop in solver code without a Budget.tick on its path \
                (inside `%s`): add Budget.tick ~what:\"...\" () to the body \
                or have it call a same-file helper that ticks"
               kind (enclosing ()))
      in
      let check_rec_binding vb =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ }
          when expr_mentions (fun lid -> lid = Longident.Lident name)
                 vb.pvb_expr ->
            if not (ticks_ok tickers vb.pvb_expr) then
              report ~loc:vb.pvb_pat.ppat_loc
                ~key:(Printf.sprintf "rec:%s" name)
                (Printf.sprintf
                   "self-recursive `%s` in solver code never calls \
                    Budget.tick: an adversarial input can recurse past any \
                    deadline; tick once per call or per expansion step"
                   name)
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          structure_item =
            (fun self si ->
              (match si.pstr_desc with
              | Pstr_value (Asttypes.Recursive, vbs) ->
                  List.iter check_rec_binding vbs
              | _ -> ());
              Ast_iterator.default_iterator.structure_item self si);
          value_binding =
            (fun self vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  context := txt :: !context;
                  Ast_iterator.default_iterator.value_binding self vb;
                  context := List.tl !context
              | _ -> Ast_iterator.default_iterator.value_binding self vb);
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_while (_, body) ->
                  check_loop ~loc:e.pexp_loc "while" body
              | Pexp_for (_, _, _, _, body) ->
                  check_loop ~loc:e.pexp_loc "for" body
              | Pexp_let (Asttypes.Recursive, vbs, _) ->
                  List.iter check_rec_binding vbs
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.structure it structure;
      List.rev !findings

(* --- R2: exception hygiene ------------------------------------------- *)

(* Exception constructors Guard.run converts into a structured Error
   ([Invalid_argument]/[Failure]/[Not_found]/[Stack_overflow]/
   [Division_by_zero]), plus the runtime's own [Exhausted] and stdlib
   [Exit] (ubiquitous local control flow, always caught in this
   codebase). *)
let convertible =
  [ "Invalid_argument"; "Failure"; "Not_found"; "Stack_overflow";
    "Division_by_zero"; "Exhausted"; "Exit" ]

let local_exceptions structure =
  let names = Hashtbl.create 8 in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_exception { ptyexn_constructor = { pext_name; _ }; _ } ->
              Hashtbl.replace names pext_name.txt ()
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_letexception ({ pext_name; _ }, _) ->
              Hashtbl.replace names pext_name.txt ()
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  names

let is_guard_run = function
  | Longident.Ldot (Longident.Lident "Guard", ("run" | "run_result")) -> true
  | _ -> false

let r2_exceptions (src : Lint_source.t) =
  match src.ast with
  | Intf _ -> []
  | Impl structure ->
      let locals = local_exceptions structure in
      let findings = ref [] in
      let keys = Hashtbl.create 16 in
      let fresh_key base =
        let n =
          match Hashtbl.find_opt keys base with Some n -> n + 1 | None -> 1
        in
        Hashtbl.replace keys base n;
        if n = 1 then base else Printf.sprintf "%s#%d" base n
      in
      let report ~loc ~key msg =
        findings :=
          Lint_finding.make ~rule:Lint_finding.R2 ~file:src.path ~loc
            ~key:(fresh_key key) msg
          :: !findings
      in
      let check_raise ~loc arg =
        match arg.pexp_desc with
        | Pexp_construct ({ txt; _ }, _) ->
            let name = last_of txt in
            if
              not (List.mem name convertible || Hashtbl.mem locals name)
            then
              report ~loc
                ~key:(Printf.sprintf "raise:%s" name)
                (Printf.sprintf
                   "raising `%s` escapes Guard.run unconverted: library \
                    code may only raise Invalid_argument/Failure/Not_found \
                    (mapped to Solver_error), Budget.Exhausted, Exit, or an \
                    exception declared in this file and caught locally"
                   name)
        | _ -> () (* re-raise of a caught exception value *)
      in
      let check_entry_point vb =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ }
          when String.length name > 2
               && String.sub name (String.length name - 2) 2 = "_b" ->
            let delegates =
              expr_mentions
                (fun lid ->
                  is_guard_run lid
                  ||
                  let s = last_of lid in
                  s <> name
                  && String.length s > 2
                  && String.sub s (String.length s - 2) 2 = "_b")
                vb.pvb_expr
            in
            if not delegates then
              report ~loc:vb.pvb_pat.ppat_loc
                ~key:(Printf.sprintf "entry:%s" name)
                (Printf.sprintf
                   "budgeted entry point `%s` can raise outside Guard.run: \
                    wrap the body in Guard.run/Guard.run_result (or \
                    delegate to another _b entry point) so exhaustion and \
                    solver failures return a structured Error"
                   name)
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          structure_item =
            (fun self si ->
              (match si.pstr_desc with
              | Pstr_value (_, vbs) -> List.iter check_entry_point vbs
              | _ -> ());
              Ast_iterator.default_iterator.structure_item self si);
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_apply
                  ( { pexp_desc = Pexp_ident { txt; _ }; _ },
                    (Asttypes.Nolabel, arg) :: _ )
                when last_of txt = "raise" || last_of txt = "raise_notrace"
                ->
                  check_raise ~loc:e.pexp_loc arg
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.structure it structure;
      List.rev !findings

(* --- R3: comparison safety ------------------------------------------- *)

let domain_modules = [ "Rat"; "Bigint" ]

(* [Rat]/[Bigint] functions returning scalars (int/bool/string/float):
   applying polymorphic [=] to their result is fine. Everything else
   in those modules yields (or contains) a domain value. *)
let scalar_fns =
  [ "compare"; "equal"; "sign"; "is_zero"; "is_one"; "is_neg"; "is_int";
    "leq"; "lt"; "geq"; "gt"; "to_int"; "to_int_opt"; "to_float";
    "to_string"; "pp"; "hash"; "fits_int"; "to_q" ]

(* Does this expression (an operand of a polymorphic comparison)
   produce a domain value? Head-based: [Rat.zero], [Rat.add x y],
   [Bigint.of_int n], ... — but not [Rat.compare x y] or other
   scalar-returning calls. *)
let rec domain_valued e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident m, fn); _ }
    when List.mem m domain_modules ->
      if List.mem fn scalar_fns then None else Some m
  | Pexp_apply (f, _) -> domain_valued f
  | _ -> None

let poly_compare_ops = [ "="; "<>"; "compare"; "<"; "<="; ">"; ">=" ]

let is_poly_compare = function
  | Longident.Lident op -> List.mem op poly_compare_ops
  | Longident.Ldot (Longident.Lident "Stdlib", op) ->
      List.mem op poly_compare_ops
  | _ -> false

let hashtbl_key_ops = [ "add"; "replace"; "find"; "find_opt"; "mem"; "remove" ]

let r3_comparisons (src : Lint_source.t) =
  match src.ast with
  | Intf _ -> []
  | Impl structure ->
      let findings = ref [] in
      let keys = Hashtbl.create 16 in
      let fresh_key base =
        let n =
          match Hashtbl.find_opt keys base with Some n -> n + 1 | None -> 1
        in
        Hashtbl.replace keys base n;
        if n = 1 then base else Printf.sprintf "%s#%d" base n
      in
      let report ~loc ~key msg =
        findings :=
          Lint_finding.make ~rule:Lint_finding.R3 ~file:src.path ~loc
            ~key:(fresh_key key) msg
          :: !findings
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_ident
                  { txt = Longident.Ldot (Longident.Lident "Hashtbl", "hash");
                    _ } ->
                  report ~loc:e.pexp_loc ~key:"hash"
                    "polymorphic Hashtbl.hash inspects only a bounded \
                     prefix of deep structural values (meaningfully-distinct \
                     inputs can collide systematically): serialize the key \
                     explicitly or use the domain type's dedicated hash"
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt = op; _ }; _ }, args)
                when is_poly_compare op -> begin
                  let operands =
                    List.filter_map
                      (fun (lbl, a) ->
                        if lbl = Asttypes.Nolabel then Some a else None)
                      args
                  in
                  match List.find_map domain_valued operands with
                  | Some m ->
                      report ~loc:e.pexp_loc
                        ~key:(Printf.sprintf "polyeq:%s" m)
                        (Printf.sprintf
                           "polymorphic `%s` on a %s.t value: use %s.equal/\
                            %s.compare (structural comparison is wrong or \
                            fragile on non-canonical representations)"
                           (last_of op) m m m)
                  | None -> ()
                end
              | Pexp_apply
                  ( { pexp_desc =
                        Pexp_ident
                          { txt =
                              Longident.Ldot (Longident.Lident "Hashtbl", op);
                            _ };
                      _ },
                    args )
                when List.mem op hashtbl_key_ops -> begin
                  let positional =
                    List.filter_map
                      (fun (lbl, a) ->
                        if lbl = Asttypes.Nolabel then Some a else None)
                      args
                  in
                  match positional with
                  | _tbl :: key :: _ -> begin
                      match domain_valued key with
                      | Some m ->
                          report ~loc:e.pexp_loc
                            ~key:(Printf.sprintf "hashtbl-key:%s" m)
                            (Printf.sprintf
                               "default Hashtbl keyed by %s.t hashes with \
                                the polymorphic hash: key on an explicit \
                                serialization (e.g. %s.to_string) or a \
                                dedicated hashtable"
                               m m)
                      | None -> ()
                    end
                  | _ -> ()
                end
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.structure it structure;
      List.rev !findings

(* --- R5: runtime-state registration ---------------------------------- *)

(* Modules whose [create]/[make]/[init] allocate a mutable container. *)
let mutable_makers =
  [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Array"; "Weak"; "Atomic";
    "Dynarray" ]

(* Is this binding's right-hand side (head position, peeling type
   constraints) a fresh mutable container — a [ref ...] or an
   [M.create]/[M.make] for a mutable module M? Returns what it is, for
   the message. *)
let rec mutable_alloc e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_alloc e
  | Pexp_apply (f, _) -> begin
      match f.pexp_desc with
      | Pexp_ident { txt = Longident.Lident "ref"; _ }
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Lident "Stdlib", "ref"); _ } ->
          Some "ref"
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Lident m, ("create" | "make" | "make_matrix" | "init"));
            _ }
        when List.mem m mutable_makers ->
          Some (m ^ ".t")
      | _ -> None
    end
  | _ -> None

let is_runtime_state_register = function
  | Longident.Ldot (Longident.Lident "Runtime_state", "register") -> true
  | _ -> false

(* Names mentioned anywhere inside the arguments of a
   [Runtime_state.register] application: a top-level binding whose name
   appears there has a reset (and possibly validate) path and counts as
   registered. *)
let registered_idents structure =
  let names = Hashtbl.create 8 in
  let record e =
    iter_idents
      (fun lid ->
        match lid with
        | Longident.Lident s -> Hashtbl.replace names s ()
        | _ -> ())
      e
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_runtime_state_register txt ->
              List.iter (fun (_, a) -> record a) args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  names

let r5_state (src : Lint_source.t) =
  match src.ast with
  | Intf _ -> []
  | Impl structure ->
      let registered = registered_idents structure in
      let findings = ref [] in
      let report ~loc ~name ~what =
        findings :=
          Lint_finding.make ~rule:Lint_finding.R5 ~file:src.path ~loc
            ~key:(Printf.sprintf "state:%s" name)
            (Printf.sprintf
               "top-level mutable state `%s` (%s) is not registered with \
                Runtime_state: a budgeted abort can leave it stale or \
                inconsistent with no way to reset or validate it; register \
                it (Runtime_state.register ~name:\"...\" ...) or make it \
                local to the computation"
               name what)
          :: !findings
      in
      let check_binding vb =
        let name =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
              Some txt
          | _ -> None
        in
        match (name, mutable_alloc vb.pvb_expr) with
        | Some name, Some what when not (Hashtbl.mem registered name) ->
            report ~loc:vb.pvb_pat.ppat_loc ~name ~what
        | _ -> ()
      in
      (* Walk structure *items* only — recursing into nested modules but
         never into expressions — so function-local mutable state (fine:
         it dies with the call) is out of scope by construction. *)
      let rec check_structure items = List.iter check_item items
      and check_item si =
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter check_binding vbs
        | Pstr_module { pmb_expr; _ } -> check_module_expr pmb_expr
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> check_module_expr mb.pmb_expr) mbs
        | Pstr_include { pincl_mod; _ } -> check_module_expr pincl_mod
        | _ -> ()
      and check_module_expr me =
        match me.pmod_desc with
        | Pmod_structure items -> check_structure items
        | Pmod_constraint (me, _) -> check_module_expr me
        | _ -> ()
      in
      check_structure structure;
      List.rev !findings

(* --- R4: .mli coverage ------------------------------------------------ *)

let r4_missing_mli ~dir ~ml ~mli =
  let has_mli base = List.mem (base ^ ".mli") mli in
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".ml" then begin
        let base = Filename.chop_suffix f ".ml" in
        if has_mli base then None
        else
          Some
            (Lint_finding.v ~rule:Lint_finding.R4
               ~file:(Filename.concat dir f) ~line:1 ~col:0
               ~key:(Printf.sprintf "mli:%s" base)
               (Printf.sprintf
                  "module `%s` has no .mli: every library module must \
                   declare its public surface"
                  (String.capitalize_ascii base)))
      end
      else None)
    ml
