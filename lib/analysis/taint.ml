(* Interprocedural float-taint inference. See taint.mli for the
   contract and the documented blind spots; the shape of the pass —
   anchor top-level bindings to Callgraph nodes, then one bottom-up
   fixpoint over the SCC condensation — is Effects', the per-body
   evaluation is a small taint interpreter instead of an effect
   join. *)

(* --- name tables ------------------------------------------------------ *)

(* Applications whose result is float-derived by definition. Names are
   post-[Callgraph.global_name], i.e. with the implicit [Stdlib.]
   stripped. *)
let float_op_heads =
  [
    "+."; "-."; "*."; "/."; "~-."; "~+."; "**"; "sqrt"; "exp"; "log";
    "log10"; "log1p"; "expm1"; "cos"; "sin"; "tan"; "acos"; "asin";
    "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float";
    "mod_float"; "frexp"; "ldexp"; "modf"; "float"; "float_of_int";
    "float_of_string"; "float_of_string_opt"; "Rat.to_float";
  ]

(* Float-valued constants referenced as bare idents. *)
let float_value_idents =
  [
    "infinity"; "neg_infinity"; "nan"; "max_float"; "min_float";
    "epsilon_float";
  ]

let source_head n =
  List.mem n float_op_heads
  || List.mem n float_value_idents
  || (String.length n > 6 && String.sub n 0 6 = "Float.")

(* Certification boundary: these launder float inputs into exact
   answers by re-deriving them in Rat — their results are clean no
   matter what flows in. *)
let sanitizer_head n =
  match n with
  | "Certify.hyperplane" | "Certify.farkas" | "Rat.of_float" -> true
  | _ -> false

(* Modules whose results are clean by contract: the exact arithmetic
   core (what a sanitizer returns), runtime bookkeeping (budget
   deadlines are floats but never data), and string rendering (once
   text, a float cannot re-enter arithmetic without float_of_string —
   itself a source). *)
let trusted_modules =
  [
    "Certify"; "Rat"; "Bigint"; "Budget"; "Guard"; "Runtime_state";
    "Printf"; "Format"; "String"; "Bytes"; "Buffer"; "Char"; "Digest";
    "Marshal"; "Filename"; "Sys"; "Unix"; "Wal";
  ]

(* Modules whose float mentions do not count towards float
   reachability: budget bookkeeping is timing, not data. *)
let float_exempt_modules = [ "Budget"; "Guard"; "Runtime_state" ]

let module_of n = match String.index_opt n '.' with
  | Some i -> String.sub n 0 i
  | None -> n

let trusted_head n = List.mem (module_of n) trusted_modules

(* --- analysis state --------------------------------------------------- *)

type t = {
  t_graph : Callgraph.t;
  t_ret : string option array;  (* return-taint witness per node *)
  t_flo : bool array;  (* float reachability per node *)
  t_bodies : (int * Typedtree.expression) list;  (* ascending SCC order *)
}

let return_taint t id = t.t_ret.(id)
let touches_float t id = t.t_flo.(id)
let bodies t = t.t_bodies

(* Local environments map stamped ident keys to witnesses; absent =
   clean. Stamps are unique within a compilation unit, so one mutable
   table per body is safe across branches and shadowing; [modname] is
   the body's unit, for resolving its local mentions. *)
type env = { modname : string; vars : (string, string) Hashtbl.t }

let new_env modname = { modname; vars = Hashtbl.create 16 }

let ( <|> ) a b = match a with Some _ -> a | None -> b ()

let anchor (e : Typedtree.expression) =
  let p = e.exp_loc.Location.loc_start in
  Printf.sprintf "%s:%d" p.Lexing.pos_fname p.Lexing.pos_lnum

let head_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Callgraph.global_name p
  | _ -> None

let bind_idents (env : env) pat w =
  List.iter
    (fun id ->
      let k = Ident.unique_name id in
      match w with
      | Some why -> Hashtbl.replace env.vars k why
      | None -> Hashtbl.remove env.vars k)
    (Typedtree.pat_bound_idents pat)

(* --- the taint interpreter -------------------------------------------- *)

let rec eval t (env : env) (e : Typedtree.expression) : string option =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) ->
      Some (Printf.sprintf "float literal at %s" (anchor e))
  | Texp_constant _ -> None
  | Texp_ident (p, _, _) -> ident_taint t env e p
  | Texp_apply (hd, args) -> apply_taint t env e hd args
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          bind_idents env vb.vb_pat (eval t env vb.vb_expr))
        vbs;
      eval t env body
  | Texp_match (scr, cases, _) ->
      let ts = eval t env scr in
      List.fold_left
        (fun acc (c : Typedtree.computation Typedtree.case) ->
          bind_idents env c.c_lhs ts;
          acc <|> fun () -> eval t env c.c_rhs)
        None cases
  | Texp_try (body, cases) ->
      (* Exception payloads are not tracked (documented blind spot):
         handler bindings start clean. *)
      List.fold_left
        (fun acc (c : Typedtree.value Typedtree.case) ->
          acc <|> fun () -> eval t env c.c_rhs)
        (eval t env body) cases
  | Texp_ifthenelse (_, a, b) ->
      (* Conditions are control, not data: floats may decide how fast
         or whether to escalate, never what the answer is. *)
      (eval t env a <|> fun () ->
       match b with Some b -> eval t env b | None -> None)
  | Texp_sequence (_, b) -> eval t env b
  | Texp_tuple es ->
      List.fold_left (fun acc e -> acc <|> fun () -> eval t env e) None es
  | Texp_construct (_, _, es) ->
      List.fold_left (fun acc e -> acc <|> fun () -> eval t env e) None es
  | Texp_variant (_, eo) -> (
      match eo with Some e -> eval t env e | None -> None)
  | Texp_field (r, _, _) -> eval t env r
  | Texp_setfield _ -> None
  | Texp_while _ | Texp_for _ -> None
  | _ -> children_or t env e

(* Fallback for constructors whose shape is not stable across the
   4.14–5.2 matrix (functions, records, letops, ...): the taint of the
   value is over-approximated by the disjunction of its immediate
   sub-expressions — for a function that is exactly the body, i.e. the
   summary of a later application. *)
and children_or t env e =
  let acc = ref None in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun _ ce -> acc := !acc <|> fun () -> eval t env ce);
    }
  in
  Tast_iterator.default_iterator.expr iter e;
  !acc

and ident_taint t env e p =
  match Callgraph.local_key p with
  | Some k when Hashtbl.mem env.vars k -> Some (Hashtbl.find env.vars k)
  | _ -> (
      match Callgraph.global_name p with
      | Some n when sanitizer_head n -> None
      | Some n when source_head n ->
          Some (Printf.sprintf "%s at %s" n (anchor e))
      | Some n when trusted_head n -> None
      | _ -> (
          match Callgraph.resolve t.t_graph ~modname:env.modname p with
          | Some id -> t.t_ret.(id)
          | None -> None))

and apply_taint t env e hd args =
  let arg_or () =
    List.fold_left
      (fun acc (_, a) ->
        acc <|> fun () ->
        match a with Some a -> eval t env a | None -> None)
      None args
  in
  match hd.exp_desc with
  | Texp_ident (p, _, _) -> (
      match Callgraph.global_name p with
      | Some n when sanitizer_head n -> None
      | Some n when source_head n ->
          Some (Printf.sprintf "result of %s at %s" n (anchor e))
      | Some n when trusted_head n -> None
      | _ -> (
          match Callgraph.local_key p with
          | Some k when Hashtbl.mem env.vars k -> Some (Hashtbl.find env.vars k)
          | _ -> (
              match Callgraph.resolve t.t_graph ~modname:env.modname p with
              | Some id ->
                  (* Defined callee: the summary only. Arguments are
                     deliberately dropped — that is what makes a
                     sanitizing wrapper sanitize. *)
                  t.t_ret.(id)
              | None ->
                  (* Unknown external: conservative argument
                     propagation (ref, !, Array.get, comparisons). *)
                  arg_or ())))
  | _ -> (eval t env hd <|> arg_or)

(* --- float reachability ----------------------------------------------- *)

let local_floats t ~modname (e : Typedtree.expression) =
  let found = ref false in
  let callee_hit p =
    match Callgraph.resolve t.t_graph ~modname p with
    | Some id ->
        t.t_flo.(id)
        && not
             (List.mem
                (Callgraph.node t.t_graph id).Callgraph.modname
                float_exempt_modules)
    | None -> false
  in
  let name_hit p =
    match Callgraph.global_name p with
    | Some n -> source_head n || sanitizer_head n
    | None -> false
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self ce ->
          (match ce.Typedtree.exp_desc with
          | Texp_constant (Asttypes.Const_float _) -> found := true
          | Texp_ident (p, _, _) ->
              if name_hit p || callee_hit p then found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self ce);
    }
  in
  iter.Tast_iterator.expr iter e;
  !found

(* --- anchoring and the fixpoint --------------------------------------- *)

let toplevel_bodies g impls =
  let acc = ref [] in
  List.iter
    (fun (modname, (str : Typedtree.structure)) ->
      List.iter
        (fun (si : Typedtree.structure_item) ->
          match si.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  let loc = vb.Typedtree.vb_pat.Typedtree.pat_loc in
                  match
                    Callgraph.node_at g ~modname
                      ~line:loc.Location.loc_start.pos_lnum
                      ~col:
                        (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                  with
                  | Some id -> acc := (id, vb.Typedtree.vb_expr) :: !acc
                  | None -> ())
                vbs
          | _ -> ())
        str.str_items)
    impls;
  (* Ascending SCC id visits callees before callers. *)
  List.stable_sort
    (fun (a, _) (b, _) -> compare (Callgraph.scc_of g a) (Callgraph.scc_of g b))
    (List.rev !acc)

let analyze g impls =
  let n = Callgraph.size g in
  let t =
    {
      t_graph = g;
      t_ret = Array.make n None;
      t_flo = Array.make n false;
      t_bodies = toplevel_bodies g impls;
    }
  in
  (* Group bodies by SCC and run each group to a fixpoint: the domain
     is monotone (None → Some, false → true), so each group needs at
     most |group| + 1 rounds; witnesses are written once on the
     false→true edge and never rewritten, keeping chains stable. *)
  let rec groups l =
    match l with
    | [] -> []
    | (id, _) :: _ ->
        let scc = Callgraph.scc_of g id in
        let same, rest =
          List.partition (fun (i, _) -> Callgraph.scc_of g i = scc) l
        in
        same :: groups rest
  in
  List.iter
    (fun group ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (id, body) ->
            let node = Callgraph.node g id in
            (if t.t_ret.(id) = None then
               match eval t (new_env node.Callgraph.modname) body with
               | Some why ->
                   t.t_ret.(id) <-
                     Some
                       (Printf.sprintf "%s \xe2\x86\x90 %s" node.Callgraph.name
                          why);
                   changed := true
               | None -> ());
            if
              (not t.t_flo.(id))
              && local_floats t ~modname:node.Callgraph.modname body
            then begin
              t.t_flo.(id) <- true;
              changed := true
            end)
          group
      done)
    (groups t.t_bodies);
  t

(* --- serialization-sink scan ------------------------------------------ *)

let scan_calls t ~heads k =
  List.iter
    (fun (node, body) ->
      let env = new_env (Callgraph.node t.t_graph node).Callgraph.modname in
      let rec scan (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_let (_, vbs, _) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                bind_idents env vb.vb_pat (eval t env vb.vb_expr))
              vbs
        | Texp_match (scr, cases, _) ->
            let ts = eval t env scr in
            List.iter
              (fun (c : Typedtree.computation Typedtree.case) ->
                bind_idents env c.c_lhs ts)
              cases
        | Texp_apply (hd, args) -> (
            match head_name hd with
            | Some n when heads n ->
                let arg_taints =
                  List.filter_map
                    (fun ((_, a) : _ * Typedtree.expression option) ->
                      Option.map (eval t env) a)
                    args
                in
                k ~node ~head:n ~loc:e.exp_loc ~args:arg_taints
            | _ -> ())
        | _ -> ());
        let iter =
          {
            Tast_iterator.default_iterator with
            expr = (fun _ ce -> scan ce);
          }
        in
        Tast_iterator.default_iterator.expr iter e
      in
      scan body)
    t.t_bodies
