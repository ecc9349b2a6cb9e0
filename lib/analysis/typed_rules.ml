(* The typed rules (R1'-R3, R6-R10), on top of the whole-library
   mention graph built by [Callgraph] from dune's [-bin-annot] output.
   R2 and R3 read one unit at a time and also run on the executables'
   units; the graph and the other rules see [lib/] only.

   Version discipline matches [Callgraph]: only 4.14..5.x-stable
   Typedtree/Types constructors are matched ([Texp_apply] with its
   arguments as [(label, Some e)] pairs, [Texp_ident], [Texp_field]
   and [Texp_construct] at arity 3, [Texp_letexception],
   [Tstr_exception], [Tstr_value], [Tstr_type], [Tsig_value]); binding
   names come from
   [pat_bound_idents]; [Path.t] and [type_kind] matches always carry a
   wildcard arm ([Pextra_ty] and the [Type_abstract] payload are 5.x
   additions). *)

type source = {
  s_mod : string;  (* compilation unit name, e.g. "Cq_sep" *)
  s_file : string;  (* root-relative .ml path findings attach to *)
  s_mli : string option;  (* root-relative .mli path, for R8 findings *)
  s_solver : bool;  (* in a worst-case-exponential library dir *)
  s_impl : Typedtree.structure;
  s_intf : Typedtree.signature option;
}

(* Per-(file, base) [#n] disambiguation: the second finding under one
   key in a file is [key#2], and so on. *)
let keyed () =
  let tbl = Hashtbl.create 16 in
  fun file base ->
    let k = (file, base) in
    let n = match Hashtbl.find_opt tbl k with Some n -> n + 1 | None -> 1 in
    Hashtbl.replace tbl k n;
    if n = 1 then base else Printf.sprintf "%s#%d" base n

let solver_files sources =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s -> if s.s_solver then Hashtbl.replace tbl s.s_mod s.s_file)
    sources;
  tbl

(* --- R1': interprocedural tick reachability --------------------------- *)

let tick_target = "Budget.tick"

let r1_tick g sources =
  let file_of = solver_files sources in
  let reach = Callgraph.reachers g ~target:tick_target in
  let fresh = keyed () in
  List.filter_map
    (fun (n : Callgraph.node) ->
      match Hashtbl.find_opt file_of n.modname with
      | None -> None
      | Some file ->
          let mk base msg =
            Some
              (Lint_finding.v ~rule:Lint_finding.R1 ~file ~line:n.line
                 ~col:n.col ~key:(fresh file base) msg)
          in
          if reach n.id then None
          else begin
            match n.kind with
            | Callgraph.Loop kind ->
                mk
                  (Printf.sprintf "%s@%s" kind n.encl)
                  (Printf.sprintf
                     "%s loop in solver code cannot reach Budget.tick \
                      through the whole-library call graph (inside `%s`): \
                      tick in the body, or through any helper on its call \
                      path — cross-module helpers count"
                     kind n.encl)
            (* Only [let rec] members: a mention cycle necessarily
               passes through one (inner non-rec bindings land in the
               same SCC via the parent edge, and flagging them too
               would report each cycle several times). *)
            | Callgraph.Def when n.is_rec && Callgraph.cyclic g n.id ->
                mk
                  (Printf.sprintf "rec:%s" n.short)
                  (Printf.sprintf
                     "recursive `%s` in solver code (a cycle of the call \
                      graph) never reaches Budget.tick: an adversarial \
                      input can recurse past any deadline; tick once per \
                      call or per expansion step"
                     n.short)
            | _ -> None
          end)
    (Callgraph.nodes g)

(* --- R6: determinism --------------------------------------------------- *)

(* Calls whose result depends on process state rather than on the
   input: the static counterpart of the chaos tests' rerun-agreement
   check. [Budget.Clock] is exempt by construction — it lives in
   lib/runtime, not in a solver dir, and mentions of it resolve to the
   Budget module, not to a sink name. A table's iteration is judged by
   the unit declaring it, not by its name: [Hashtbl.fold] and the
   [fold] of any [Hashtbl.Make] instance ([Elem.Tbl.fold], a local
   [Tbl.fold]) are all declared by [Stdlib__Hashtbl]. *)
let unordered_iterations =
  [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let sink_of name decl =
  let last = List.hd (List.rev (String.split_on_char '.' name)) in
  if String.starts_with ~prefix:"Random." name then
    Some
      ( "the global PRNG",
        "thread explicit, seeded state through the solver or drop the \
         randomness" )
  else if decl = Some "Stdlib__Hashtbl" && List.mem last unordered_iterations
  then
    Some
      ( "order-dependent Hashtbl iteration",
        "collect the keys, sort them, and fold in sorted order so the \
         result is independent of insertion history" )
  else
    match name with
    | "Unix.time" | "Unix.gettimeofday" | "Sys.time" ->
        Some
          ( "the wall clock",
            "read time through Budget.Clock, the runtime's sanctioned clock"
          )
    | _ -> None

(* The root set results flow out of: every value a solver module's
   interface exports, as [(module source, exported name, graph node)].
   Without a cmti (or for an .ml-only module) every top-level
   definition is a root — degraded towards more coverage, never less.
   R6, R9 and R12 all start here. *)
let entry_points g sources =
  List.concat_map
    (fun s ->
      if not s.s_solver then []
      else
        match s.s_intf with
        | Some sg ->
            List.filter_map
              (fun (item : Typedtree.signature_item) ->
                match item.Typedtree.sig_desc with
                | Typedtree.Tsig_value vd ->
                    let name = vd.Typedtree.val_name.Location.txt in
                    Option.map
                      (fun id -> (s, name, id))
                      (Callgraph.find_global g (s.s_mod ^ "." ^ name))
                | _ -> None)
              sg.Typedtree.sig_items
        | None ->
            List.filter_map
              (fun (n : Callgraph.node) ->
                if n.modname = s.s_mod && n.toplevel && n.kind = Callgraph.Def
                then Some (s, n.short, n.id)
                else None)
              (Callgraph.nodes g))
    sources

let r6_determinism g sources =
  let file_of = solver_files sources in
  let covered =
    Callgraph.reachable_from g
      (List.map (fun (_, _, id) -> id) (entry_points g sources))
  in
  let fresh = keyed () in
  let ms =
    List.sort
      (fun (a : Callgraph.mention) (b : Callgraph.mention) ->
        Stdlib.compare
          ((Callgraph.node g a.m_node).Callgraph.modname, a.m_line, a.m_col, a.m_name)
          ((Callgraph.node g b.m_node).Callgraph.modname, b.m_line, b.m_col, b.m_name))
      (Callgraph.mentions g)
  in
  List.filter_map
    (fun (m : Callgraph.mention) ->
      let n = Callgraph.node g m.m_node in
      match (Hashtbl.find_opt file_of n.modname, sink_of m.m_name m.m_decl) with
      | Some file, Some (what, fix) when covered m.m_node ->
          let owner =
            match n.kind with Callgraph.Loop _ -> n.encl | _ -> n.short
          in
          Some
            (Lint_finding.v ~rule:Lint_finding.R6 ~file ~line:m.m_line ~col:m.m_col
               ~key:(fresh file (Printf.sprintf "det:%s@%s" m.m_name owner))
               (Printf.sprintf
                  "`%s` (%s) sits on a path reachable from the solver's \
                   exported surface (via `%s`): solver results must be \
                   bit-for-bit deterministic across reruns and fork \
                   workers; %s"
                  m.m_name what owner fix))
      | _ -> None)
    ms

(* --- R7: marshal safety ------------------------------------------------ *)

(* Type names for diagnostics and the safe/unsafe tables: dotted names
   for globals, [Path.name] for predefs ([int], [list], ...) and
   module-local types. *)
let tyname p =
  match Callgraph.global_name p with Some n -> n | None -> Path.name p

(* Declarations defined in the loaded library set, so abstract heads
   can be expanded instead of flagged. Keyed by the stamped type ident
   (same-module references), by [Mod.path.t] (cross-module references)
   and, for types in single-level local modules, by the stamped module
   ident ([M/7.t]) that [Callgraph.local_key] produces for [M.t]. *)
let type_table sources =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let display = ref [ s.s_mod ] in
      let uniq = ref [] in
      let register (td : Typedtree.type_declaration) =
        let name = Ident.name td.Typedtree.typ_id in
        let decl = td.Typedtree.typ_type in
        Hashtbl.replace tbl (Ident.unique_name td.Typedtree.typ_id) decl;
        Hashtbl.replace tbl
          (String.concat "." (List.rev (name :: !display)))
          decl;
        match !uniq with
        | [ m ] -> Hashtbl.replace tbl (m ^ "." ^ name) decl
        | _ -> ()
      in
      let iter =
        {
          Tast_iterator.default_iterator with
          structure_item =
            (fun self si ->
              (match si.Typedtree.str_desc with
              | Typedtree.Tstr_type (_, tds) -> List.iter register tds
              | _ -> ());
              Tast_iterator.default_iterator.structure_item self si);
          module_binding =
            (fun self mb ->
              let name =
                match mb.Typedtree.mb_name.Location.txt with
                | Some n -> n
                | None -> "_"
              in
              let u =
                match mb.Typedtree.mb_id with
                | Some id -> Ident.unique_name id
                | None -> "_"
              in
              display := name :: !display;
              uniq := u :: !uniq;
              Tast_iterator.default_iterator.module_binding self mb;
              display := List.tl !display;
              uniq := List.tl !uniq);
        }
      in
      iter.Tast_iterator.structure iter s.s_impl)
    sources;
  tbl

let lookup_decl tbl p =
  let by k = Hashtbl.find_opt tbl k in
  match Callgraph.local_key p with
  | Some k when by k <> None -> by k
  | _ -> ( match Callgraph.global_name p with Some g -> by g | None -> None)

(* Heads that marshal structurally (possibly via their arguments,
   which are always checked first). *)
let safe_heads =
  [ "int"; "char"; "string"; "bytes"; "float"; "bool"; "unit"; "int32";
    "int64"; "nativeint"; "list"; "option"; "array"; "ref"; "result";
    "Either.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "Hashtbl.t" ]

let unsafe_heads =
  [ ("exn", "exception values lose identity across Marshal");
    ("lazy_t", "an unforced lazy is a closure");
    ("Lazy.t", "an unforced lazy is a closure");
    ("Seq.t", "a sequence is a closure");
    ("in_channel", "channels are custom blocks");
    ("out_channel", "channels are custom blocks");
    ("Unix.file_descr", "file descriptors are process-local");
    ("Mutex.t", "mutexes are custom blocks");
    ("Condition.t", "condition variables are custom blocks");
    ("Domain.t", "domains are process-local") ]

(* [Set.Make]/[Map.Make] instances: the values are plain constructor
   trees (the comparison closure lives in the module, not the value),
   but the functor body's declarations are not in our cmt set, so the
   head looks abstract. Recognized by module-name convention — the one
   deliberate blind spot (a non-stdlib functor whose module happens to
   end in "Set" is waved through). *)
let functor_container name =
  match List.rev (String.split_on_char '.' name) with
  | "t" :: m :: _ ->
      String.ends_with ~suffix:"Set" m || String.ends_with ~suffix:"Map" m
  | _ -> false

let rec violation tbl ~depth ~seen ty =
  if depth <= 0 then None
  else
    match Types.get_desc ty with
    | Types.Tarrow _ -> Some "a function (closure)"
    | Types.Tobject _ -> Some "an object (methods are closures)"
    | Types.Tpackage _ -> Some "a first-class module"
    | Types.Ttuple args -> violation_list tbl ~depth ~seen args
    | Types.Tpoly (t, _) -> violation tbl ~depth ~seen t
    | Types.Tvariant row ->
        violation_list tbl ~depth ~seen
          (List.concat_map
             (fun (_, f) ->
               match Types.row_field_repr f with
               | Types.Rpresent (Some t) -> [ t ]
               | Types.Reither (_, ts, _) -> ts
               | _ -> [])
             (Types.row_fields row))
    | Types.Tconstr (p, args, _) -> begin
        match violation_list tbl ~depth ~seen args with
        | Some _ as v -> v
        | None -> begin
            let name = tyname p in
            match List.assoc_opt name unsafe_heads with
            | Some why -> Some (Printf.sprintf "`%s` (%s)" name why)
            | None ->
                if
                  List.mem name safe_heads
                  || functor_container name
                  || List.mem name seen
                then None
                else begin
                  match lookup_decl tbl p with
                  | Some decl ->
                      violation_decl tbl ~depth:(depth - 1)
                        ~seen:(name :: seen) decl
                  | None ->
                      Some
                        (Printf.sprintf
                           "`%s`, an abstract type not known to be \
                            marshal-safe"
                           name)
                end
          end
      end
    (* Tvar/Tunivar: polymorphic holes are checked where they are
       instantiated; Tnil/Tfield only occur under Tobject. *)
    | _ -> None

and violation_list tbl ~depth ~seen tys =
  List.find_map (fun t -> violation tbl ~depth ~seen t) tys

and violation_decl tbl ~depth ~seen (decl : Types.type_declaration) =
  let labels lds =
    violation_list tbl ~depth ~seen
      (List.map (fun (ld : Types.label_declaration) -> ld.Types.ld_type) lds)
  in
  match decl.Types.type_manifest with
  | Some t -> violation tbl ~depth ~seen t
  | None -> begin
      match decl.Types.type_kind with
      | Types.Type_variant (cds, _) ->
          List.find_map
            (fun (cd : Types.constructor_declaration) ->
              match cd.Types.cd_args with
              | Types.Cstr_tuple ts -> violation_list tbl ~depth ~seen ts
              | Types.Cstr_record lds -> labels lds)
            cds
      | Types.Type_record (lds, _) -> labels lds
      | Types.Type_open -> Some "an extensible variant (payloads unknown)"
      | _ -> None (* abstract with no manifest: nothing concrete to flag *)
    end

(* A result-channel crossing: a (possibly partial) application whose
   head is [Isolate.run] or a [.run] field of a [Guard.runner]-shaped
   record. The ok component of the application's result type is what
   the fork worker will marshal back. *)
let r7_marshal tbl sources =
  let fresh = keyed () in
  let findings = ref [] in
  let scan s =
    let names = ref [] in
    let encl () = match !names with [] -> "<toplevel>" | n :: _ -> n in
    let site_head (f : Typedtree.expression) =
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) ->
          let n = tyname p in
          if n = "Isolate.run" || n = "Isolate.spawn" then Some n else None
      | Typedtree.Texp_field (_, _, ld) when ld.Types.lbl_name = "run" ->
          begin
            match Types.get_desc ld.Types.lbl_res with
            | Types.Tconstr (p, _, _)
              when String.ends_with ~suffix:"runner" (tyname p) ->
                Some (tyname p ^ ".run")
            | _ -> None
          end
      | _ -> None
    in
    let rec codomain ty =
      match Types.get_desc ty with
      | Types.Tarrow (_, _, r, _) -> codomain r
      | _ -> ty
    in
    let check_site (e : Typedtree.expression) f =
      match site_head f with
      | None -> ()
      | Some via -> begin
          (* Isolate.run : ... -> (ok, failure) result;
             Isolate.spawn : ... -> ok Isolate.worker. Either way [ok]
             is what the worker marshals back. *)
          let ok_component =
            match Types.get_desc (codomain e.Typedtree.exp_type) with
            | Types.Tconstr (p, [ ok; _err ], _) when tyname p = "result" ->
                Some ok
            | Types.Tconstr (p, [ ok ], _)
              when tyname p = "Isolate.worker" || tyname p = "worker" ->
                Some ok
            | _ -> None
          in
          match ok_component with
          | Some ok ->
              begin
                match violation tbl ~depth:40 ~seen:[] ok with
                | None -> ()
                | Some what ->
                    let loc = e.Typedtree.exp_loc in
                    findings :=
                      Lint_finding.v ~rule:Lint_finding.R7 ~file:s.s_file
                        ~line:loc.Location.loc_start.pos_lnum
                        ~col:
                          (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                        ~key:
                          (fresh s.s_file
                             (Printf.sprintf "marshal:%s" (encl ())))
                        (Printf.sprintf
                           "result crossing %s contains %s: the fork \
                            worker marshals its result back to the \
                            parent, which cannot decode this; return a \
                            closure-free summary and rebuild the rich \
                            value on the parent side (inside `%s`)"
                           via what (encl ()))
                      :: !findings
              end
          | None -> ()
        end
    in
    let iter =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_apply (f, _) -> check_site e f
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
        value_binding =
          (fun self vb ->
            let name =
              match Typedtree.pat_bound_idents vb.Typedtree.vb_pat with
              | [] -> "_"
              | i :: _ -> Ident.name i
            in
            names := name :: !names;
            Tast_iterator.default_iterator.value_binding self vb;
            names := List.tl !names);
      }
    in
    iter.Tast_iterator.structure iter s.s_impl
  in
  List.iter scan sources;
  List.rev !findings

(* --- R8: _b signature drift ------------------------------------------- *)

let render ty =
  Printtyp.reset ();
  Format.asprintf "%a" Printtyp.type_expr ty

let rec spine ty =
  match Types.get_desc ty with
  | Types.Tarrow (lbl, a, r, _) ->
      let args, cod = spine r in
      ((lbl, a) :: args, cod)
  | Types.Tpoly (t, _) -> spine t
  | _ -> ([], ty)

let label_name = function
  | Asttypes.Nolabel -> "an unlabeled argument"
  | Asttypes.Labelled l -> "~" ^ l
  | Asttypes.Optional l -> "?" ^ l

let r8_drift sources =
  List.concat_map
    (fun s ->
      if not s.s_solver then []
      else
        match s.s_intf with
        | None -> []
        | Some sg ->
            let file = match s.s_mli with Some f -> f | None -> s.s_file in
            let vals =
              List.filter_map
                (fun (it : Typedtree.signature_item) ->
                  match it.Typedtree.sig_desc with
                  | Typedtree.Tsig_value vd ->
                      Some (vd.Typedtree.val_name.Location.txt, vd)
                  | _ -> None)
                sg.Typedtree.sig_items
            in
            List.filter_map
              (fun ((name, vd) : string * Typedtree.value_description) ->
                if not (String.ends_with ~suffix:"_b" name) then None
                else begin
                  let base = String.sub name 0 (String.length name - 2) in
                  match List.assoc_opt base vals with
                  | None -> None
                  | Some base_vd ->
                      let mk msg =
                        let loc = vd.Typedtree.val_loc in
                        Some
                          (Lint_finding.v ~rule:Lint_finding.R8 ~file
                             ~line:loc.Location.loc_start.pos_lnum
                             ~col:
                               (loc.loc_start.pos_cnum
                              - loc.loc_start.pos_bol)
                             ~key:("drift:" ^ name)
                             (Printf.sprintf
                                "budgeted `%s` drifted from `%s`: %s — \
                                 the twins must agree modulo ?budget and \
                                 the (_, Guard.failure) result wrapper, \
                                 or callers silently get different \
                                 semantics per entry point"
                                name base msg))
                      in
                      let b_args, b_cod =
                        spine vd.Typedtree.val_val.Types.val_type
                      in
                      let args, cod =
                        spine base_vd.Typedtree.val_val.Types.val_type
                      in
                      let budget, rest =
                        List.partition
                          (fun (l, _) -> l = Asttypes.Optional "budget")
                          b_args
                      in
                      if budget = [] then
                        mk "it takes no ?budget:Budget.t argument"
                      else begin
                        match Types.get_desc b_cod with
                        | Types.Tconstr (p, [ ok; err ], _)
                          when tyname p = "result" ->
                            let err_ok =
                              match Types.get_desc err with
                              | Types.Tconstr (pe, _, _) ->
                                  String.ends_with ~suffix:"failure"
                                    (tyname pe)
                              | _ -> false
                            in
                            if not err_ok then
                              mk
                                (Printf.sprintf
                                   "its error channel is `%s`, not \
                                    Guard.failure"
                                   (render err))
                            else if List.length rest <> List.length args
                            then
                              mk
                                (Printf.sprintf
                                   "it takes %d non-budget argument(s) \
                                    but `%s` takes %d"
                                   (List.length rest) base
                                   (List.length args))
                            else begin
                              let mism =
                                List.find_map
                                  (fun ((bl, bt), (l, t)) ->
                                    if bl <> l then
                                      Some
                                        (Printf.sprintf
                                           "argument labels differ (%s \
                                            vs %s)"
                                           (label_name bl) (label_name l))
                                    else if render bt <> render t then
                                      Some
                                        (Printf.sprintf
                                           "argument %s has type `%s` vs \
                                            `%s`"
                                           (label_name l) (render bt)
                                           (render t))
                                    else None)
                                  (List.combine rest args)
                              in
                              match mism with
                              | Some m -> mk m
                              | None ->
                                  if render ok <> render cod then
                                    mk
                                      (Printf.sprintf
                                         "its ok type is `%s` but `%s` \
                                          returns `%s`"
                                         (render ok) base (render cod))
                                  else None
                            end
                        | _ ->
                            mk
                              (Printf.sprintf
                                 "it returns `%s`, not a (_, \
                                  Guard.failure) result"
                                 (render b_cod))
                      end
                end)
              vals)
    sources

(* --- R9: state registration on exported entry points ------------------ *)

let r9_effects g eff sources =
  let fresh = keyed () in
  List.filter_map
    (fun (s, name, id) ->
      let es = Effects.signature eff id in
      match Effects.unregistered_writes eff es with
      | [] -> None
      | bad ->
          let n = Callgraph.node g id in
          Some
            (Lint_finding.v ~rule:Lint_finding.R9 ~file:s.s_file ~line:n.line
               ~col:n.col
               ~key:(fresh s.s_file ("effect:" ^ name))
               (Printf.sprintf
                  "exported entry point `%s` writes unregistered global \
                   state (%s) — inferred effect %s: a budget abort can \
                   leave it stale, and an Isolate fork worker would \
                   inherit the mutation without a reset; register the \
                   cache with Runtime_state (with a validator) or \
                   localize the state"
                  name
                  (String.concat ", "
                     (List.map
                        (fun (site : Effects.site) ->
                          Printf.sprintf "`%s` (%s)" site.Effects.site_name
                            site.Effects.site_what)
                        bad))
                  (Effects.describe eff es))))
    (entry_points g sources)

(* --- R10: local mutable state escaping a fork boundary ----------------- *)

(* Runs on every loaded module, not just solver dirs: the runtime and
   service layers are exactly where Isolate boundaries live. *)
let r10_escape sources =
  List.concat_map
    (fun s ->
      let fresh = keyed () in
      List.map
        (fun (e : Escape.escape) ->
          Lint_finding.v ~rule:Lint_finding.R10 ~file:s.s_file
            ~line:e.Escape.esc_line ~col:e.Escape.esc_col
            ~key:
              (fresh s.s_file
                 (Printf.sprintf "escape:%s@%s" e.Escape.esc_name
                    e.Escape.esc_encl))
            (Printf.sprintf
               "local mutable `%s` (%s) escapes across `%s` (line %d): \
                after the fork the worker mutates a copy and the writes \
                are lost at the merge — move the allocation inside the \
                thunk or return the data through the result channel"
               e.Escape.esc_name e.Escape.esc_what e.Escape.esc_head
               e.Escape.esc_bline))
        (Escape.analyze s.s_impl))
    sources

(* --- R2 and R3: one unit at a time ------------------------------------- *)

(* R2. Exception constructors Guard.run converts into a structured
   Error ([Invalid_argument]/[Failure]/[Not_found]/[Stack_overflow]/
   [Division_by_zero]), plus the runtime's own [Exhausted] and stdlib
   [Exit] (ubiquitous local control flow, always caught in this
   codebase). *)
let convertible =
  [ "Invalid_argument"; "Failure"; "Not_found"; "Stack_overflow";
    "Division_by_zero"; "Exhausted"; "Exit" ]

(* A structure-level [_b] binding delegates when its body mentions
   [Guard.run]/[Guard.run_result] or another [_b] entry point. *)
let delegates name (body : Typedtree.expression) =
  let found = ref false in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> begin
              match Callgraph.global_name p with
              | Some ("Guard.run" | "Guard.run_result") -> found := true
              | _ ->
                  let s = Path.last p in
                  if s <> name && String.ends_with ~suffix:"_b" s then
                    found := true
            end
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  iter.Tast_iterator.expr iter body;
  !found

(* R3 judges the type the typechecker instantiated at each use of a
   polymorphic primitive. [mentioned mods ty] is the first of [mods]
   whose [M.t] occurs in [ty], through type arguments and tuples. *)
let rec mentioned mods ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> begin
      match List.find_opt (fun m -> tyname p = m ^ ".t") mods with
      | None -> List.find_map (mentioned mods) args
      | found -> found
    end
  | Types.Ttuple ts -> List.find_map (mentioned mods) ts
  | Types.Tpoly (t, _) -> mentioned mods t
  | _ -> None

(* Polymorphic [Hashtbl.hash] reads all of a flat scalar; anything
   deeper (or still a type variable) risks bounded-prefix collisions. *)
let flat_scalar ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
      List.mem (tyname p) [ "int"; "char"; "bool"; "float"; "string" ]
  | _ -> false

let poly_compare_ops = [ "="; "<>"; "compare"; "<"; "<="; ">"; ">=" ]

let hashtbl_key_ops =
  List.map (( ^ ) "Hashtbl.")
    [ "add"; "replace"; "find"; "find_opt"; "mem"; "remove" ]

(* Every primitive judged here takes the value it inspects first:
   ['a -> ...] or [('k, 'v) Hashtbl.t -> 'k -> ...]. [Elem.t] is left
   out of the comparison check (one canonical representation, ordered
   by [Elem.compare] exactly as by [Stdlib.compare]) but not out of
   the key check: the stdlib table hashes a bounded prefix of a nested
   element. *)
let r3_check report (e : Typedtree.expression) name =
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tarrow (_, arg, _, _) ->
      if List.mem name poly_compare_ops then
        Option.iter
          (fun m ->
            report ("polyeq:" ^ m)
              (Printf.sprintf
                 "polymorphic `%s` on a %s.t value: use %s.equal/%s.compare \
                  (structural comparison is wrong or fragile on \
                  non-canonical representations)"
                 name m m m))
          (mentioned [ "Rat"; "Bigint" ] arg)
      else if name = "Hashtbl.hash" && not (flat_scalar arg) then
        report "hash"
          "polymorphic Hashtbl.hash inspects only a bounded prefix of deep \
           structural values (meaningfully-distinct inputs can collide \
           systematically): serialize the key explicitly or use the domain \
           type's dedicated hash"
      else if List.mem name hashtbl_key_ops then begin
        match Types.get_desc arg with
        | Types.Tconstr (_, key :: _, _) ->
            Option.iter
              (fun m ->
                report ("hashtbl-key:" ^ m)
                  (Printf.sprintf
                     "default Hashtbl keyed by %s.t hashes with the \
                      polymorphic hash: key on an explicit serialization \
                      (e.g. %s.to_string) or a dedicated hashtable"
                     m m))
              (mentioned [ "Rat"; "Bigint"; "Elem" ] key)
        | _ -> ()
      end
  | _ -> ()

let unit_rules sources =
  let fresh = keyed () in
  List.concat_map
    (fun s ->
      let findings = ref [] and raises = ref [] in
      let locals = Hashtbl.create 8 in
      let report rule (loc : Location.t) base msg =
        findings :=
          Lint_finding.make ~rule ~file:s.s_file ~loc
            ~key:(fresh s.s_file base) msg
          :: !findings
      in
      let entry (vb : Typedtree.value_binding) =
        match Typedtree.pat_bound_idents vb.Typedtree.vb_pat with
        | [ id ]
          when String.ends_with ~suffix:"_b" (Ident.name id)
               && not (delegates (Ident.name id) vb.vb_expr) ->
            report Lint_finding.R2 vb.vb_pat.pat_loc
              ("entry:" ^ Ident.name id)
              (Printf.sprintf
                 "budgeted entry point `%s` can raise outside Guard.run: \
                  wrap the body in Guard.run/Guard.run_result (or delegate \
                  to another _b entry point) so exhaustion and solver \
                  failures return a structured Error"
                 (Ident.name id))
        | _ -> ()
      in
      let iter =
        {
          Tast_iterator.default_iterator with
          structure_item =
            (fun self si ->
              (match si.Typedtree.str_desc with
              | Typedtree.Tstr_exception te ->
                  Hashtbl.replace locals
                    te.Typedtree.tyexn_constructor.ext_name.txt ()
              | Typedtree.Tstr_value (_, vbs) -> List.iter entry vbs
              | _ -> ());
              Tast_iterator.default_iterator.structure_item self si);
          expr =
            (fun self e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) ->
                  Option.iter
                    (r3_check (report Lint_finding.R3 e.exp_loc) e)
                    (Callgraph.global_name p)
              | Typedtree.Texp_letexception (ec, _) ->
                  Hashtbl.replace locals ec.Typedtree.ext_name.txt ()
              (* A re-raise of a caught exception value is not a
                 constructor and passes. *)
              | Typedtree.Texp_apply
                  ( { exp_desc = Typedtree.Texp_ident (p, _, _); _ },
                    ( Asttypes.Nolabel,
                      Some
                        { exp_desc = Typedtree.Texp_construct (_, cd, _); _ }
                    )
                    :: _ )
                when List.mem (Path.name p)
                       [ "Stdlib.raise"; "Stdlib.raise_notrace" ] ->
                  raises := (e.exp_loc, cd.Types.cstr_name) :: !raises
              | _ -> ());
              Tast_iterator.default_iterator.expr self e);
        }
      in
      iter.Tast_iterator.structure iter s.s_impl;
      List.iter
        (fun (loc, name) ->
          if not (List.mem name convertible || Hashtbl.mem locals name) then
            report Lint_finding.R2 loc ("raise:" ^ name)
              (Printf.sprintf
                 "raising `%s` escapes Guard.run unconverted: library code \
                  may only raise Invalid_argument/Failure/Not_found (mapped \
                  to Solver_error), Budget.Exhausted, Exit, or an exception \
                  declared in this file and caught locally"
                 name))
        (List.rev !raises);
      List.rev !findings)
    sources

(* --- entry point ------------------------------------------------------- *)

let run ?(execs = []) g sources =
  let eff =
    Effects.analyze g (List.map (fun s -> (s.s_mod, s.s_impl)) sources)
  in
  let tbl = type_table sources in
  r1_tick g sources @ unit_rules (sources @ execs)
  @ r6_determinism g sources @ r7_marshal tbl sources @ r8_drift sources
  @ r9_effects g eff sources @ r10_escape sources
