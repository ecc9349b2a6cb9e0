(* Interprocedural effect inference over the whole-library mention
   graph: every Callgraph node gets the set of top-level mutable
   bindings it reads and writes ("sites": refs, Hashtbls, Buffers, ...
   created at a module's structure top level), each site annotated
   with its Runtime_state registration status. That is R9's input: an
   entry point that writes an unregistered site is a finding.

   The analysis is three source passes plus one graph pass:

     1. site catalogue  — top-level mutable allocations, per module;
     2. registry map    — [Runtime_state.register ~name:"..."] call
                          sites: every catalogued site mentioned in
                          the call's arguments (reset closure,
                          validate closure) carries that registry name;
     3. local effects   — a Typedtree walk re-attributed to Callgraph
                          nodes via {!Callgraph.node_at}: site reads
                          (any resolved mention of a site) and site
                          writes (a writer head applied with the site
                          in target position);
     4. propagation     — one bottom-up pass over the Tarjan SCC
                          condensation in ascending SCC-id order
                          (callees first, see {!Callgraph.scc_of}):
                          an SCC's signature is the join of its
                          members' local effects and the final
                          signatures of all out-of-SCC callees.

   The runtime-contract exemption: nodes in [Budget], [Guard] and
   [Runtime_state] are effect-free by fiat and effect-opaque — their
   bookkeeping is reset by contract — and thunks passed into them are
   mentioned directly by the caller, so real effects still flow.

   Version discipline matches [Callgraph]: only 4.14..5.x-stable
   constructors are matched, binding names come from
   [pat_bound_idents], and [Path.t]/constant matches carry wildcard
   arms. *)

type site = {
  site_node : int;  (* Callgraph node of the top-level binding *)
  site_name : string;  (* qualified display name, e.g. "Nsep.s_decided" *)
  site_what : string;  (* "ref", "Hashtbl", "Buffer", ... *)
  site_registered : string option;  (* Runtime_state registry name *)
}

type esig = {
  e_reads : int list;  (* site indexes, sorted, deduplicated *)
  e_writes : int list;  (* ditto; writes are also reads *)
}

type t = {
  t_sites : site array;
  t_sigs : esig array;  (* indexed by Callgraph node id *)
}

let empty_sig = { e_reads = []; e_writes = [] }

(* --- small sorted-int-set ops ----------------------------------------- *)

let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      if x < y then x :: union xs b
      else if y < x then y :: union a ys
      else x :: union xs ys

let add_elt x l = union [ x ] l

let join a b =
  {
    e_reads = union a.e_reads b.e_reads;
    e_writes = union a.e_writes b.e_writes;
  }

(* --- module exemption -------------------------------------------------- *)

let exempt_modules = [ "Budget"; "Guard"; "Runtime_state" ]
let exempt_module m = List.mem m exempt_modules

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* --- mutable-allocation heads ------------------------------------------ *)

let mutable_makers =
  [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Array"; "Weak"; "Atomic";
    "Dynarray"; "Bytes" ]

let maker_fns = [ "create"; "make"; "make_matrix"; "init" ]

let tyname p =
  match Callgraph.global_name p with Some n -> n | None -> Path.name p

(* [alloc_head e] is [Some what] when [e] is a mutable allocation:
   [ref x] or [M.create/make/... args] for a catalogued maker. *)
let alloc_head (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> begin
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> begin
          match tyname p with
          | "ref" -> Some "ref"
          | n -> begin
              match String.split_on_char '.' n with
              | [ m; fn ] when List.mem m mutable_makers && List.mem fn maker_fns
                ->
                  Some m
              | _ -> None
            end
        end
      | _ -> None
    end
  | _ -> None

(* --- writer heads ------------------------------------------------------ *)

(* Applications that mutate their first positional argument. The set
   errs on the side of coverage: a name listed here only upgrades an
   already-recorded read into a write. *)
let writer_head name =
  match name with
  | ":=" | "incr" | "decr" -> true
  | _ -> begin
      match String.split_on_char '.' name with
      | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear"
                     | "filter_map_inplace" | "add_seq" | "replace_seq") ]
      | [ "Array"; ("set" | "fill" | "blit" | "sort" | "fast_sort"
                   | "stable_sort" | "unsafe_set") ]
      | [ "Bytes"; ("set" | "fill" | "blit" | "unsafe_set" | "blit_string") ]
      | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer"
                   | "add_seq") ]
      | [ "Stack"; ("push" | "pop" | "clear") ]
      | [ "Weak"; ("set" | "fill" | "blit") ]
      | [ "Atomic"; ("set" | "incr" | "decr" | "exchange" | "fetch_and_add"
                    | "compare_and_set") ] ->
          true
      | [ "Buffer"; fn ] ->
          starts_with "add" fn
          || (match fn with
             | "clear" | "reset" | "truncate" -> true
             | _ -> false)
      | [ "Dynarray"; fn ] ->
          starts_with "add" fn
          || (match fn with
             | "set" | "clear" | "remove_last" | "truncate" | "fit_capacity"
             | "ensure_capacity" | "append" ->
                 true
             | _ -> false)
      | _ -> false
    end

(* --- pass 1: site catalogue -------------------------------------------- *)

(* Top-level here means "not under any value binding": a binding in a
   nested [module M = struct ... end] is still program-lifetime global
   state. Mirrors exactly the positions [Callgraph] marks [toplevel]. *)
let collect_sites g impls =
  let sites = ref [] in
  List.iter
    (fun (modname, str) ->
      if not (exempt_module modname) then begin
        let rec str_item (si : Typedtree.structure_item) =
          match si.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  match alloc_head vb.Typedtree.vb_expr with
                  | None -> ()
                  | Some what -> begin
                      let loc = vb.Typedtree.vb_pat.Typedtree.pat_loc in
                      match
                        Callgraph.node_at g ~modname
                          ~line:loc.Location.loc_start.pos_lnum
                          ~col:
                            (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                      with
                      | None -> ()
                      | Some id ->
                          let n = Callgraph.node g id in
                          sites :=
                            {
                              site_node = id;
                              site_name = n.Callgraph.name;
                              site_what = what;
                              site_registered = None;
                            }
                            :: !sites
                    end)
                vbs
          | Typedtree.Tstr_module mb -> module_binding mb
          | Typedtree.Tstr_recmodule mbs -> List.iter module_binding mbs
          | _ -> ()
        and module_binding (mb : Typedtree.module_binding) =
          module_expr mb.Typedtree.mb_expr
        and module_expr (me : Typedtree.module_expr) =
          match me.Typedtree.mod_desc with
          | Typedtree.Tmod_structure s -> List.iter str_item s.Typedtree.str_items
          | Typedtree.Tmod_constraint (me, _, _, _) -> module_expr me
          | _ -> ()
        in
        List.iter str_item str.Typedtree.str_items
      end)
    impls;
  Array.of_list (List.rev !sites)

(* --- pass 2: registry map ---------------------------------------------- *)

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

let mark_registered g sites impls =
  let by_node = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace by_node s.site_node i) sites;
  let registered = Hashtbl.create 16 in
  List.iter
    (fun (modname, str) ->
      let iter =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_apply (f, args) -> begin
                  match f.Typedtree.exp_desc with
                  | Typedtree.Texp_ident (p, _, _)
                    when tyname p = "Runtime_state.register" -> begin
                      let name =
                        List.find_map
                          (fun (lbl, arg) ->
                            match (lbl, arg) with
                            | ( Asttypes.Labelled "name",
                                Some (a : Typedtree.expression) ) -> begin
                                match a.Typedtree.exp_desc with
                                | Typedtree.Texp_constant
                                    (Asttypes.Const_string (s, _, _)) ->
                                    Some s
                                | _ -> None
                              end
                            | _ -> None)
                          args
                      in
                      match name with
                      | None -> ()
                      | Some reg_name ->
                          List.iter
                            (fun (_, arg) ->
                              match arg with
                              | None -> ()
                              | Some a ->
                                  List.iter
                                    (fun p ->
                                      match
                                        Callgraph.resolve g ~modname p
                                      with
                                      | Some id
                                        when Hashtbl.mem by_node id ->
                                          Hashtbl.replace registered
                                            (Hashtbl.find by_node id)
                                            reg_name
                                      | _ -> ())
                                    (idents_in a))
                            args
                    end
                  | _ -> ()
                end
              | _ -> ());
              Tast_iterator.default_iterator.expr self e);
        }
      in
      iter.Tast_iterator.structure iter str)
    impls;
  Array.mapi
    (fun i s ->
      match Hashtbl.find_opt registered i with
      | Some name -> { s with site_registered = Some name }
      | None -> s)
    sites

(* --- pass 3: local effects --------------------------------------------- *)

let local_effects g sites impls =
  let n = Callgraph.size g in
  let locals = Array.make (max n 1) empty_sig in
  let site_of_node = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace site_of_node s.site_node i) sites;
  let record id f = if id >= 0 && id < n then locals.(id) <- f locals.(id) in
  List.iter
    (fun (modname, str) ->
      let stack = ref [] in
      let cur () = match !stack with [] -> -1 | v :: _ -> v in
      let push_at (loc : Location.t) =
        let id =
          match
            Callgraph.node_at g ~modname ~line:loc.loc_start.pos_lnum
              ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
          with
          | Some id -> id
          | None -> cur ()  (* degraded: attribute to the enclosing node *)
        in
        stack := id :: !stack
      in
      let pop () = stack := List.tl !stack in
      let note_read p =
        match Callgraph.resolve g ~modname p with
        | Some id -> begin
            match Hashtbl.find_opt site_of_node id with
            | Some s ->
                record (cur ()) (fun l ->
                    { l with e_reads = add_elt s l.e_reads })
            | None -> ()
          end
        | None -> ()
      in
      let note_writes (target : Typedtree.expression) =
        List.iter
          (fun p ->
            match Callgraph.resolve g ~modname p with
            | Some id -> begin
                match Hashtbl.find_opt site_of_node id with
                | Some s ->
                    record (cur ()) (fun l ->
                        {
                          e_reads = add_elt s l.e_reads;
                          e_writes = add_elt s l.e_writes;
                        })
                | None -> ()
              end
            | None -> ())
          (idents_in target)
      in
      let check_apply (f : Typedtree.expression) args =
        match f.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) when writer_head (tyname p) -> begin
            match
              List.find_map
                (fun (lbl, arg) ->
                  match (lbl, arg) with
                  | Asttypes.Nolabel, Some a -> Some a
                  | _ -> None)
                args
            with
            | Some target -> note_writes target
            | None -> ()
          end
        | _ -> ()
      in
      let process_bindings self (vbs : Typedtree.value_binding list) =
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            push_at vb.Typedtree.vb_pat.Typedtree.pat_loc;
            self.Tast_iterator.expr self vb.Typedtree.vb_expr;
            pop ())
          vbs
      in
      let iter =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun self e ->
              match e.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) -> note_read p
              | Typedtree.Texp_let (_, vbs, body) ->
                  process_bindings self vbs;
                  self.Tast_iterator.expr self body
              | Typedtree.Texp_while (cond, body) ->
                  self.Tast_iterator.expr self cond;
                  push_at e.Typedtree.exp_loc;
                  self.Tast_iterator.expr self body;
                  pop ()
              | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
                  self.Tast_iterator.expr self lo;
                  self.Tast_iterator.expr self hi;
                  push_at e.Typedtree.exp_loc;
                  self.Tast_iterator.expr self body;
                  pop ()
              | Typedtree.Texp_apply (f, args) ->
                  check_apply f args;
                  Tast_iterator.default_iterator.expr self e
              | _ -> Tast_iterator.default_iterator.expr self e);
          structure_item =
            (fun self si ->
              match si.Typedtree.str_desc with
              | Typedtree.Tstr_value (_, vbs) -> process_bindings self vbs
              | _ -> Tast_iterator.default_iterator.structure_item self si);
        }
      in
      iter.Tast_iterator.structure iter str)
    impls;
  locals

(* --- pass 4: SCC propagation ------------------------------------------- *)

let propagate g locals =
  let n = Callgraph.size g in
  let sigs = Array.make (max n 1) empty_sig in
  let exempt id = exempt_module (Callgraph.node g id).Callgraph.modname in
  let nscc = Callgraph.scc_count g in
  let members = Array.make (max nscc 1) [] in
  for v = n - 1 downto 0 do
    let s = Callgraph.scc_of g v in
    members.(s) <- v :: members.(s)
  done;
  (* Ascending SCC id = callees first (see Callgraph.scc_of). Within
     one SCC every member reaches every other, so the join of all
     members' locals plus all out-of-SCC callee signatures is the
     exact least fixpoint — no iteration needed. *)
  for s = 0 to nscc - 1 do
    let acc = ref empty_sig in
    List.iter
      (fun v ->
        if not (exempt v) then begin
          acc := join !acc locals.(v);
          List.iter
            (fun w ->
              if Callgraph.scc_of g w <> s then acc := join !acc sigs.(w))
            (Callgraph.succs g v)
        end)
      members.(s);
    List.iter
      (fun v -> sigs.(v) <- (if exempt v then empty_sig else !acc))
      members.(s)
  done;
  sigs

(* --- entry point ------------------------------------------------------- *)

let analyze g impls =
  let sites = collect_sites g impls in
  let sites = mark_registered g sites impls in
  let locals = local_effects g sites impls in
  { t_sites = sites; t_sigs = propagate g locals }

(* --- queries ----------------------------------------------------------- *)

let signature t id = t.t_sigs.(id)
let sites t = t.t_sites

let unregistered_writes t s =
  List.filter_map
    (fun i ->
      let site = t.t_sites.(i) in
      if site.site_registered = None then Some site else None)
    s.e_writes

let site_display site =
  match site.site_registered with
  | Some name -> name
  | None -> site.site_name

let describe t s =
  match union s.e_reads s.e_writes with
  | [] -> "pure"
  | touched ->
      Printf.sprintf "%s(%s)"
        (if unregistered_writes t s <> [] then "writes-global"
         else "reads-cache")
        (String.concat ", "
           (List.map
              (fun i ->
                site_display t.t_sites.(i)
                ^ if List.mem i s.e_writes then "!" else "")
              touched))
