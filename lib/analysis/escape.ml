(* Shared-state escape analysis: track mutable values created inside a
   function (refs, arrays, Hashtbls, Buffers, Bytes, ...) and report
   when one crosses a fork/runner boundary — directly as an argument,
   or captured by a closure handed to [Isolate.run]/[Isolate.spawn] or
   applied through a [*runner]-record [.run] field.

   Crossing a fork means the child mutates a *copy*: writes are lost at
   the merge, the precise fork-time aliasing bug class an OCaml 5
   domains backend turns from silent wrong-answers into races. That is
   R10.

   Mechanics: one top-down pass per module. A per-module environment
   maps stamped idents ([Ident.unique_name] — unique per binder, so
   scope exit needs no cleanup) of non-toplevel mutable allocations to
   their allocation facts, and a capture map gives each let-bound value
   the transitively-resolved set of tracked mutables its RHS mentions.
   Both are populated at binding time, *before* descending into the
   RHS, and boundary applications scan their argument subtrees *before*
   descent — so a mutable allocated inside the escaping thunk itself is
   correctly out of scope and not reported. Top-level bindings are
   skipped: those are R9's sites, not locals. *)

type escape = {
  esc_head : string;  (** boundary head, e.g. ["Isolate.run"] *)
  esc_what : string;  (** allocation head: ["ref"], ["Hashtbl"], ... *)
  esc_name : string;  (** the local binding's source name *)
  esc_line : int;  (** allocation site *)
  esc_col : int;
  esc_encl : string;  (** enclosing top-level binding *)
  esc_bline : int;  (** boundary (the crossing application) *)
  esc_bcol : int;
}

type alloc = { a_what : string; a_name : string; a_line : int; a_col : int }

let tyname p =
  match Callgraph.global_name p with Some n -> n | None -> Path.name p

let boundary_head (f : Typedtree.expression) =
  match f.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> begin
      match tyname p with
      | ("Isolate.run" | "Isolate.spawn") as n -> Some n
      | _ -> None
    end
  | Typedtree.Texp_field (_, _, ld) when ld.Types.lbl_name = "run" -> begin
      match Types.get_desc ld.Types.lbl_res with
      | Types.Tconstr (p, _, _)
        when String.ends_with ~suffix:"runner" (tyname p) ->
          Some "runner.run"
      | _ -> None
    end
  | _ -> None

let idents_in (e : Typedtree.expression) =
  let acc = ref [] in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> acc := p :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  iter.Tast_iterator.expr iter e;
  !acc

let stamp_of (p : Path.t) = Callgraph.local_key p

let analyze (str : Typedtree.structure) =
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  (* stamped ident -> allocation fact, for tracked local mutables *)
  let mutables : (string, alloc) Hashtbl.t = Hashtbl.create 16 in
  (* stamped ident -> tracked mutables its RHS captured *)
  let captures : (string, alloc list) Hashtbl.t = Hashtbl.create 16 in
  let encl = ref "" in
  let resolve_path p =
    match stamp_of p with
    | None -> []
    | Some k -> begin
        match Hashtbl.find_opt mutables k with
        | Some a -> [ a ]
        | None -> (
            match Hashtbl.find_opt captures k with Some l -> l | None -> [])
      end
  in
  let escaping (e : Typedtree.expression) =
    List.concat_map resolve_path (idents_in e)
  in
  let report head (bloc : Location.t) allocs =
    List.iter
      (fun a ->
        let key = (a.a_name, a.a_line, a.a_col, head) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          out :=
            {
              esc_head = head;
              esc_what = a.a_what;
              esc_name = a.a_name;
              esc_line = a.a_line;
              esc_col = a.a_col;
              esc_encl = !encl;
              esc_bline = bloc.loc_start.pos_lnum;
              esc_bcol = bloc.loc_start.pos_cnum - bloc.loc_start.pos_bol;
            }
            :: !out
        end)
      allocs
  in
  let check_apply (e : Typedtree.expression) (f : Typedtree.expression) args =
    match boundary_head f with
    | Some head ->
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some a -> report head e.Typedtree.exp_loc (escaping a)
            | None -> ())
          args
    | None -> ()
  in
  let track_binding (vb : Typedtree.value_binding) =
    (* Capture set first — computed against the env *before* the RHS's
       own allocations are visible. *)
    let captured = escaping vb.Typedtree.vb_expr in
    let bound = Typedtree.pat_bound_idents vb.Typedtree.vb_pat in
    (match Effects.alloc_head vb.Typedtree.vb_expr with
    | Some what ->
        let loc = vb.Typedtree.vb_pat.Typedtree.pat_loc in
        List.iter
          (fun id ->
            Hashtbl.replace mutables (Ident.unique_name id)
              {
                a_what = what;
                a_name = Ident.name id;
                a_line = loc.loc_start.pos_lnum;
                a_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
              })
          bound
    | None ->
        if captured <> [] then
          List.iter
            (fun id -> Hashtbl.replace captures (Ident.unique_name id) captured)
            bound)
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_let (_, vbs, body) ->
              List.iter
                (fun vb ->
                  track_binding vb;
                  self.Tast_iterator.expr self vb.Typedtree.vb_expr)
                vbs;
              self.Tast_iterator.expr self body
          | Typedtree.Texp_apply (f, args) ->
              check_apply e f args;
              Tast_iterator.default_iterator.expr self e
          | _ -> Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self si ->
          match si.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
              (* Top-level bindings are global sites, not locals: name
                 the enclosure, skip tracking, descend. *)
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  let saved = !encl in
                  (match Typedtree.pat_bound_idents vb.Typedtree.vb_pat with
                  | id :: _ -> encl := Ident.name id
                  | [] -> ());
                  self.Tast_iterator.expr self vb.Typedtree.vb_expr;
                  encl := saved)
                vbs
          | _ -> Tast_iterator.default_iterator.structure_item self si);
    }
  in
  iter.Tast_iterator.structure iter str;
  List.rev !out
