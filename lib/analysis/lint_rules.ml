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

(* A rule's finding sink: [report] disambiguates repeated keys within
   the file as [key#2], [key#3], ...; [findings ()] lists them in
   report order. *)
let collector rule (src : Lint_source.t) =
  let findings = ref [] in
  let keys = Hashtbl.create 16 in
  let report ~loc ~key msg =
    let n = match Hashtbl.find_opt keys key with Some n -> n + 1 | None -> 1 in
    Hashtbl.replace keys key n;
    let key = if n = 1 then key else Printf.sprintf "%s#%d" key n in
    findings :=
      Lint_finding.make ~rule ~file:src.path ~loc ~key msg :: !findings
  in
  (report, fun () -> List.rev !findings)

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
      let report, findings = collector Lint_finding.R2 src in
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
      findings ()

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
      let report, findings = collector Lint_finding.R3 src in
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
      findings ()

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
