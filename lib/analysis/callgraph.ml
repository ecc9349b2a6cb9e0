(* Whole-library call graph over Typedtree, for the typed lint rules.

   Version discipline (4.14..5.x, same as the Parsetree rules):
   traversal is delegated to [Tast_iterator.default_iterator]; the only
   constructors matched are ones whose shape is stable across the
   supported range ([Texp_ident], [Texp_let], [Texp_while],
   [Texp_for], [Tstr_value], [Tstr_module], [Tstr_recmodule]); binding
   names come from [pat_bound_idents] rather than from [Tpat_var]
   (whose arity changed in 5.x); [Path.t] is always matched with a
   wildcard fallback (5.x added [Pextra_ty]).

   The graph is a *mention* graph: node A has an edge to node B when
   A's body mentions B — applied, partially applied, or merely
   referenced. That over-approximates "calls" in the quiet direction
   (mentioning a ticking function counts as ticking through it, even
   if the mention never runs). A mention is credited to the definition
   the typechecker bound it to, across modules, shadowing and opens —
   never to whatever happens to share its name. *)

type node_kind =
  | Def  (** a [let]-bound value (any nesting depth) *)
  | Loop of string  (** a [while]/[for] body — ["while"] or ["for"] *)
  | External  (** mentioned but defined outside the loaded cmts *)

type node = {
  id : int;
  name : string;
      (** qualified display name: ["Cq_sep.decide"], nested
          ["Cq_sep.decide.go"], loops ["Cq_sep.decide:while@14"];
          externals keep their resolved path name, ["Budget.tick"] *)
  modname : string;  (** enclosing compilation unit; [""] for externals *)
  kind : node_kind;
  short : string;  (** unqualified binding name, for finding keys *)
  encl : string;
      (** nearest enclosing binding name, for loop keys ([while@encl]) *)
  line : int;
  col : int;
  is_rec : bool;  (** bound in a [let rec] group *)
  toplevel : bool;  (** bound at the structure top level of its module *)
}

type mention = {
  m_node : int;
  m_name : string;
  m_decl : string option;
  m_line : int;
  m_col : int;
}

type t = {
  g_nodes : node array;
  g_succs : int list array;  (* mention edges, deduplicated, sorted *)
  g_mentions : mention list;
  g_by_global : (string, int) Hashtbl.t;
  g_by_local : (string, int) Hashtbl.t;  (* [scoped] ident keys → def node *)
  g_at : (string * int * int, int) Hashtbl.t;  (* (mod, line, col) → node *)
  g_scc_of : int array;
  g_scc_count : int;
  g_scc_cyclic : bool array;
}

(* --- path resolution keys -------------------------------------------- *)

let rec local_key (p : Path.t) =
  match p with
  | Path.Pident id -> Some (Ident.unique_name id)
  | Path.Pdot (p, s) -> begin
      match local_key p with Some k -> Some (k ^ "." ^ s) | None -> None
    end
  | _ -> None

(* Ident stamps are unique only within one compilation unit: two
   modules of the loaded set can both bind [to_string_484]. Locals are
   therefore keyed by their module too. *)
let scoped modname k = modname ^ ":" ^ k

(* The implicit [open Stdlib] makes the same function resolve as
   [Hashtbl.fold] or [Stdlib.Hashtbl.fold] depending on how it was
   written; normalize so sinks and targets match both spellings. *)
let strip_stdlib name =
  let prefix = "Stdlib." in
  let n = String.length prefix in
  if String.length name > n && String.sub name 0 n = prefix then
    String.sub name n (String.length name - n)
  else name

let global_name (p : Path.t) =
  let rec head = function
    | Path.Pident id -> Some id
    | Path.Pdot (p, _) -> head p
    | _ -> None
  in
  match head p with
  | Some id when Ident.global id -> Some (strip_stdlib (Path.name p))
  | _ -> None

(* The compilation unit that declares a value: for a member of a
   functor instance, the unit of the functor's result signature, so
   [Elem.Tbl.fold] is declared by [Stdlib__Hashtbl] like
   [Hashtbl.fold]. *)
let decl_unit (vd : Types.value_description) =
  match vd.Types.val_uid with
  | Shape.Uid.Item { comp_unit; _ } | Shape.Uid.Compilation_unit comp_unit ->
      Some comp_unit
  | _ -> None

(* --- construction ----------------------------------------------------- *)

type builder = {
  mutable b_nodes : node list;  (* reversed *)
  mutable b_count : int;
  b_edges : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable b_mentions : mention list;
  b_global : (string, int) Hashtbl.t;
  b_local : (string, int) Hashtbl.t;  (* [scoped] ident keys → def node *)
  b_external : (string, int) Hashtbl.t;
}

let new_node b ~name ~modname ~kind ~short ~encl ~line ~col ~is_rec ~toplevel =
  let id = b.b_count in
  b.b_count <- id + 1;
  b.b_nodes <-
    { id; name; modname; kind; short; encl; line; col; is_rec; toplevel }
    :: b.b_nodes;
  id

let add_edge b src dst =
  if src >= 0 then begin
    let tbl =
      match Hashtbl.find_opt b.b_edges src with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add b.b_edges src t;
          t
    in
    Hashtbl.replace tbl dst ()
  end

let external_node b name =
  match Hashtbl.find_opt b.b_external name with
  | Some id -> id
  | None ->
      let id =
        new_node b ~name ~modname:"" ~kind:External ~short:name ~encl:""
          ~line:0 ~col:0 ~is_rec:false ~toplevel:false
      in
      Hashtbl.add b.b_external name id;
      id

type ctx = {
  c_mod : string;
  mutable c_stack : int list;  (* innermost node first; [] at toplevel *)
  mutable c_names : string list;  (* enclosing binding names *)
  mutable c_modpath : string list;  (* nested module display path *)
  mutable c_moduniq : string list;  (* stamped keys of nested modules *)
}

let current ctx = match ctx.c_stack with [] -> -1 | n :: _ -> n
let enclosing ctx = match ctx.c_names with [] -> "<toplevel>" | n :: _ -> n

let display_prefix ctx =
  String.concat "." (ctx.c_mod :: List.rev ctx.c_modpath)

let qualify ctx short =
  match ctx.c_names with
  | [] -> display_prefix ctx ^ "." ^ short
  | ns ->
      display_prefix ctx ^ "." ^ String.concat "." (List.rev ns) ^ "."
      ^ short

let walk_module b ctx (str : Typedtree.structure) =
  let record_mention path (loc : Location.t) (vd : Types.value_description) =
    let src = current ctx in
    let mention m_name =
      {
        m_node = src;
        m_name;
        m_decl = decl_unit vd;
        m_line = loc.loc_start.pos_lnum;
        m_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      }
    in
    if src >= 0 then begin
      match Option.map (scoped ctx.c_mod) (local_key path) with
      | Some k when Hashtbl.mem b.b_local k ->
          add_edge b src (Hashtbl.find b.b_local k)
      | _ -> begin
          match global_name path with
          | Some g when Hashtbl.mem b.b_global g ->
              add_edge b src (Hashtbl.find b.b_global g)
          | Some g ->
              b.b_mentions <- mention g :: b.b_mentions;
              add_edge b src (external_node b g)
          | None ->
              (* A member of a local module the walk defines no value
                 for, such as a functor instance's: a mention for the
                 sink rules, not a node. *)
              b.b_mentions <- mention (Path.name path) :: b.b_mentions
        end
    end
  in
  let register_binding ~is_rec (vb : Typedtree.value_binding) =
    let idents = Typedtree.pat_bound_idents vb.vb_pat in
    let short = match idents with [] -> "_" | id :: _ -> Ident.name id in
    let toplevel = ctx.c_stack = [] in
    let loc = vb.Typedtree.vb_pat.Typedtree.pat_loc in
    let id =
      new_node b ~name:(qualify ctx short) ~modname:ctx.c_mod ~kind:Def
        ~short ~encl:(enclosing ctx) ~line:loc.loc_start.pos_lnum
        ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
        ~is_rec ~toplevel
    in
    List.iter
      (fun ident ->
        Hashtbl.replace b.b_local
          (scoped ctx.c_mod (Ident.unique_name ident))
          id;
        if toplevel then begin
          Hashtbl.replace b.b_global
            (display_prefix ctx ^ "." ^ Ident.name ident)
            id;
          (* members of nested *local* modules are also reached through
             the stamped module ident: [M.f] → ["M/123.f"] *)
          match ctx.c_moduniq with
          | [] -> ()
          | _ ->
              Hashtbl.replace b.b_local
                (scoped ctx.c_mod
                   (String.concat "."
                      (List.rev ctx.c_moduniq @ [ Ident.name ident ])))
                id
        end)
      idents;
    (* evaluating the enclosing body evaluates (or closes over) the
       binding: keep the parent connected so ticks inside `let _ = ...`
       bindings are not lost *)
    add_edge b (current ctx) id;
    id
  in
  let process_bindings self (rf : Asttypes.rec_flag) vbs =
    let is_rec = rf = Asttypes.Recursive in
    let ids = List.map (register_binding ~is_rec) vbs in
    List.iter2
      (fun (vb : Typedtree.value_binding) id ->
        ctx.c_stack <- id :: ctx.c_stack;
        ctx.c_names <-
          (match Typedtree.pat_bound_idents vb.vb_pat with
          | [] -> "_"
          | i :: _ -> Ident.name i)
          :: ctx.c_names;
        self.Tast_iterator.expr self vb.Typedtree.vb_expr;
        ctx.c_stack <- List.tl ctx.c_stack;
        ctx.c_names <- List.tl ctx.c_names)
      vbs ids
  in
  let enter_loop kind (loc : Location.t) =
    let line = loc.loc_start.pos_lnum in
    let name =
      Printf.sprintf "%s:%s@%d"
        (match ctx.c_names with
        | [] -> display_prefix ctx
        | ns -> display_prefix ctx ^ "." ^ String.concat "." (List.rev ns))
        kind line
    in
    let id =
      new_node b ~name ~modname:ctx.c_mod ~kind:(Loop kind) ~short:kind
        ~encl:(enclosing ctx) ~line
        ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
        ~is_rec:false ~toplevel:false
    in
    add_edge b (current ctx) id;
    ctx.c_stack <- id :: ctx.c_stack
  in
  let exit_loop () = ctx.c_stack <- List.tl ctx.c_stack in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (path, lid, vd) ->
              record_mention path lid.Location.loc vd
          | Typedtree.Texp_let (rf, vbs, body) ->
              process_bindings self rf vbs;
              self.Tast_iterator.expr self body
          | Typedtree.Texp_while (cond, body) ->
              self.Tast_iterator.expr self cond;
              enter_loop "while" e.Typedtree.exp_loc;
              self.Tast_iterator.expr self body;
              exit_loop ()
          | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
              self.Tast_iterator.expr self lo;
              self.Tast_iterator.expr self hi;
              enter_loop "for" e.Typedtree.exp_loc;
              self.Tast_iterator.expr self body;
              exit_loop ()
          | _ -> Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self si ->
          match si.Typedtree.str_desc with
          | Typedtree.Tstr_value (rf, vbs) -> process_bindings self rf vbs
          | Typedtree.Tstr_module mb ->
              self.Tast_iterator.module_binding self mb
          | Typedtree.Tstr_recmodule mbs ->
              List.iter (self.Tast_iterator.module_binding self) mbs
          | _ -> Tast_iterator.default_iterator.structure_item self si);
      module_binding =
        (fun self mb ->
          let display =
            match mb.Typedtree.mb_name.Location.txt with
            | Some n -> n
            | None -> "_"
          in
          let uniq =
            match mb.Typedtree.mb_id with
            | Some id -> Ident.unique_name id
            | None -> "_"
          in
          ctx.c_modpath <- display :: ctx.c_modpath;
          ctx.c_moduniq <- uniq :: ctx.c_moduniq;
          self.Tast_iterator.module_expr self mb.Typedtree.mb_expr;
          ctx.c_modpath <- List.tl ctx.c_modpath;
          ctx.c_moduniq <- List.tl ctx.c_moduniq);
    }
  in
  iter.Tast_iterator.structure iter str

(* --- Tarjan SCC (iterative: explicit frames, no native stack) --------- *)

let sccs ~n ~succs =
  let index = Array.make (max n 1) (-1) in
  let low = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let next = ref 0 in
  let scc_of = Array.make (max n 1) (-1) in
  let cyclic_sccs = ref [] in
  let nscc = ref 0 in
  let push v frames =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    (v, ref (succs v)) :: frames
  in
  let visit v0 =
    let frames = ref (push v0 []) in
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, rest) :: tl -> begin
          match !rest with
          | w :: ws ->
              rest := ws;
              if index.(w) = -1 then frames := push w !frames
              else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
          | [] ->
              frames := tl;
              (match tl with
              | (p, _) :: _ -> low.(p) <- min low.(p) low.(v)
              | [] -> ());
              if low.(v) = index.(v) then begin
                let id = !nscc in
                incr nscc;
                let size = ref 0 in
                let stop = ref false in
                while not !stop do
                  match !stack with
                  | [] -> stop := true
                  | w :: rest ->
                      stack := rest;
                      on_stack.(w) <- false;
                      scc_of.(w) <- id;
                      incr size;
                      if w = v then stop := true
                done;
                if !size > 1 then cyclic_sccs := id :: !cyclic_sccs
              end
        end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (scc_of, !nscc, !cyclic_sccs)

let build impls =
  let b =
    {
      b_nodes = [];
      b_count = 0;
      b_edges = Hashtbl.create 512;
      b_mentions = [];
      b_global = Hashtbl.create 512;
      b_local = Hashtbl.create 1024;
      b_external = Hashtbl.create 128;
    }
  in
  List.iter
    (fun (modname, str) ->
      walk_module b
        { c_mod = modname; c_stack = []; c_names = []; c_modpath = [];
          c_moduniq = [] }
        str)
    impls;
  let n = b.b_count in
  let dummy =
    { id = -1; name = ""; modname = ""; kind = External; short = "";
      encl = ""; line = 0; col = 0; is_rec = false; toplevel = false }
  in
  let g_nodes = Array.make n dummy in
  List.iter (fun node -> g_nodes.(node.id) <- node) b.b_nodes;
  (* A mention of a module walked later was recorded against an
     External node; with every module walked, point it at the
     definition, so cross-module edges do not depend on load order. *)
  let target d =
    if g_nodes.(d).kind <> External then d
    else
      Option.value ~default:d (Hashtbl.find_opt b.b_global g_nodes.(d).name)
  in
  let g_succs = Array.make n [] in
  Hashtbl.iter
    (fun src tbl ->
      g_succs.(src) <-
        List.sort_uniq Int.compare
          (Hashtbl.fold (fun d () acc -> target d :: acc) tbl []))
    b.b_edges;
  let scc_of, nscc, cyclic_ids = sccs ~n ~succs:(fun v -> g_succs.(v)) in
  let g_scc_cyclic = Array.make (max nscc 1) false in
  List.iter (fun id -> g_scc_cyclic.(id) <- true) cyclic_ids;
  Array.iteri
    (fun v ws -> if List.mem v ws then g_scc_cyclic.(scc_of.(v)) <- true)
    g_succs;
  let g_at = Hashtbl.create (max n 16) in
  Array.iter
    (fun node ->
      if node.kind <> External then
        Hashtbl.replace g_at (node.modname, node.line, node.col) node.id)
    g_nodes;
  {
    g_nodes;
    g_succs;
    g_mentions =
      List.filter (fun m -> not (Hashtbl.mem b.b_global m.m_name)) b.b_mentions;
    g_by_global = b.b_global;
    g_by_local = b.b_local;
    g_at;
    g_scc_of = scc_of;
    g_scc_count = nscc;
    g_scc_cyclic;
  }

(* --- queries ---------------------------------------------------------- *)

let size g = Array.length g.g_nodes
let nodes g = Array.to_list g.g_nodes
let node g id = g.g_nodes.(id)
let succs g id = g.g_succs.(id)
let mentions g = g.g_mentions
let find_global g name = Hashtbl.find_opt g.g_by_global name
let cyclic g id = size g > 0 && g.g_scc_cyclic.(g.g_scc_of.(id))
let scc_of g id = g.g_scc_of.(id)
let scc_count g = g.g_scc_count

(* The same two-step resolution [record_mention] uses during
   construction: stamped local idents of [modname] first
   (shadowing-correct), then dotted globals. Externals resolve to
   [None] — callers classify them by name instead. *)
let resolve g ~modname (p : Path.t) =
  match Option.map (scoped modname) (local_key p) with
  | Some k when Hashtbl.mem g.g_by_local k -> Hashtbl.find_opt g.g_by_local k
  | _ -> begin
      match global_name p with
      | Some n -> Hashtbl.find_opt g.g_by_global n
      | None -> None
    end

let node_at g ~modname ~line ~col = Hashtbl.find_opt g.g_at (modname, line, col)

(* Bounded-depth BFS closure over an adjacency function. The cap
   bounds analysis work on adversarial graphs; at the default cap (64)
   a missed path needs a call chain deeper than any in this library. *)
let closure ~n ~adj ~depth roots =
  let seen = Array.make (max n 1) false in
  let frontier = ref (List.filter (fun v -> v >= 0 && v < n) roots) in
  List.iter (fun v -> seen.(v) <- true) !frontier;
  let d = ref 0 in
  while !frontier <> [] && !d < depth do
    incr d;
    frontier :=
      List.concat_map
        (fun v ->
          List.filter
            (fun w ->
              if seen.(w) then false
              else begin
                seen.(w) <- true;
                true
              end)
            (adj v))
        !frontier
  done;
  fun v -> v >= 0 && v < max n 1 && seen.(v)

let reachable_from ?(depth = 64) g roots =
  closure ~n:(size g) ~adj:(fun v -> g.g_succs.(v)) ~depth roots

let reachers ?(depth = 64) g ~target =
  let n = size g in
  let preds = Array.make (max n 1) [] in
  Array.iteri
    (fun v ws -> List.iter (fun w -> preds.(w) <- v :: preds.(w)) ws)
    g.g_succs;
  let roots = ref [] in
  Array.iter
    (fun node -> if node.name = target then roots := node.id :: !roots)
    g.g_nodes;
  closure ~n ~adj:(fun v -> preds.(v)) ~depth !roots

let reaches ?depth g ~target src = (reachers ?depth g ~target) src

(* Graphviz rendering of the SCC condensation: one box per SCC
   (labelled with up to three member names), one edge per inter-SCC
   mention. Externals are elided — they are leaves by construction and
   double the node count. Everything is sorted, so the output is
   byte-deterministic. *)
let dump_dot g buf =
  let members = Array.make g.g_scc_count [] in
  Array.iter
    (fun node ->
      if node.kind <> External then
        let s = g.g_scc_of.(node.id) in
        members.(s) <- node.name :: members.(s))
    g.g_nodes;
  Buffer.add_string buf "digraph cqlint {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  Array.iteri
    (fun s names ->
      match List.sort String.compare names with
      | [] -> ()
      | sorted ->
          let shown = List.filteri (fun i _ -> i < 3) sorted in
          let extra = List.length sorted - List.length shown in
          let label =
            String.concat "\\n" shown
            ^ (if extra > 0 then Printf.sprintf "\\n(+%d more)" extra else "")
          in
          let attrs =
            if g.g_scc_cyclic.(s) then ", style=bold, color=firebrick"
            else ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  s%d [label=\"%s\"%s];\n" s label attrs))
    members;
  let edges = Hashtbl.create 256 in
  Array.iteri
    (fun v ws ->
      if g.g_nodes.(v).kind <> External then
        List.iter
          (fun w ->
            if g.g_nodes.(w).kind <> External then begin
              let sv = g.g_scc_of.(v) and sw = g.g_scc_of.(w) in
              if sv <> sw then Hashtbl.replace edges (sv, sw) ()
            end)
          ws)
    g.g_succs;
  let sorted_edges =
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges [])
  in
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "  s%d -> s%d;\n" a b))
    sorted_edges;
  Buffer.add_string buf "}\n"

let dump g buf =
  let ns = Array.copy g.g_nodes in
  Array.sort (fun a b -> String.compare a.name b.name) ns;
  Array.iter
    (fun node ->
      if node.kind <> External then begin
        let kind =
          match node.kind with
          | Def -> if node.is_rec then "rec" else "def"
          | Loop k -> k
          | External -> "ext"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s [%s%s]\n" node.name kind
             (if cyclic g node.id then " cyclic" else ""));
        List.iter
          (fun s ->
            Buffer.add_string buf
              (Printf.sprintf "  -> %s%s\n" g.g_nodes.(s).name
                 (match g.g_nodes.(s).kind with
                 | External -> " (external)"
                 | _ -> "")))
          (List.sort
             (fun a b ->
               String.compare g.g_nodes.(a).name g.g_nodes.(b).name)
             g.g_succs.(node.id))
      end)
    ns
