(* R12/R13/R14 and the exactness-boundary report. See
   protocol_rules.mli for the contracts; Taint supplies the summaries
   and the anchored bodies, this module supplies the sink scopes, the
   must-journal dominance walk and the must-release walk. *)

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

let is_arrow ty =
  let rec go ty =
    match Types.get_desc ty with
    | Types.Tarrow _ -> true
    | Types.Tpoly (t, _) -> go t
    | _ -> false
  in
  go ty

let head_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Callgraph.global_name p
  | _ -> None

let head_node g ~modname (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match Callgraph.resolve g ~modname p with
      | Some id when (Callgraph.node g id).Callgraph.kind = Callgraph.Def ->
          Some id
      | _ -> None)
  | _ -> None

(* Immediate sub-expressions, one level deep — the version-stable way
   through constructors (functions, records, letops) whose shape moved
   across the 4.14-5.2 matrix. *)
let child_exprs (e : Typedtree.expression) =
  let acc = ref [] in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ ce -> acc := ce :: !acc);
    }
  in
  Tast_iterator.default_iterator.expr iter e;
  List.rev !acc

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum
let loc_col (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let by_module sources =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Typed_rules.source) -> Hashtbl.replace tbl s.s_mod s)
    sources;
  tbl

(* --- R12: float taint -------------------------------------------------- *)

let serialization_heads = [ "Model_io.save"; "Model_io.to_string"; "Wal.append" ]

let default_sink_scope (s : Typed_rules.source) =
  starts_with ~prefix:"lib/core/" s.s_file
  || starts_with ~prefix:"lib/linsep/" s.s_file

let r12_float_taint ?(sink_scope = default_sink_scope) tnt g sources =
  let entry_findings =
    List.filter_map
      (fun ((s : Typed_rules.source), name, node) ->
        if not (sink_scope s) then None
        else
          match Taint.return_taint tnt node with
          | None -> None
          | Some why ->
              let n = Callgraph.node g node in
              Some
                (Lint_finding.v ~rule:Lint_finding.R12 ~file:s.s_file
                   ~line:n.Callgraph.line ~col:n.Callgraph.col
                   ~key:("taint:" ^ name)
                   (Printf.sprintf
                      "uncertified float reaches the return value of %s \
                       [%s]; re-derive the verdict with \
                       Certify.hyperplane/farkas or convert exactly with \
                       Rat.of_float"
                      name why)))
      (Typed_rules.entry_points g sources)
  in
  let mods = by_module sources in
  let sink_findings = ref [] in
  Taint.scan_calls tnt
    ~heads:(fun n -> List.mem n serialization_heads)
    (fun ~node ~head ~loc ~args ->
      match List.find_map (fun w -> w) args with
      | None -> ()
      | Some why -> (
          let n = Callgraph.node g node in
          match Hashtbl.find_opt mods n.Callgraph.modname with
          | None -> ()
          | Some (s : Typed_rules.source) ->
              sink_findings :=
                Lint_finding.v ~rule:Lint_finding.R12 ~file:s.s_file
                  ~line:(loc_line loc) ~col:(loc_col loc)
                  ~key:
                    (Printf.sprintf "taint-sink:%s@%s" head n.Callgraph.short)
                  (Printf.sprintf
                     "float-tainted value flows into %s [%s]; serialized \
                      payloads must be exact"
                     head why)
                :: !sink_findings));
  entry_findings @ List.rev !sink_findings

(* --- R13: journal-before-ack ------------------------------------------- *)

let default_service_scope (s : Typed_rules.source) =
  starts_with ~prefix:"lib/service/" s.s_file

type jctx = {
  jc_g : Callgraph.t;
  jc_mod : string;  (* the walked body's compilation unit *)
  jc_djs : bool array;  (* "calling this node definitely journals" *)
  jc_heads : string -> bool;
}

(* Does evaluating [e] unconditionally append to the WAL? A must-
   analysis: the fallback for unhandled shapes is [false], function
   values defer their bodies, and branches conjoin. *)
let rec dj ctx (e : Typedtree.expression) =
  if is_arrow e.exp_type then false
  else
    match e.exp_desc with
    | Texp_apply (hd, args) -> (
        let arg_dj =
          List.exists
            (fun (_, a) -> match a with Some a -> dj ctx a | None -> false)
            args
        in
        match head_name hd with
        | Some n when ctx.jc_heads n -> true
        | _ -> (
            match head_node ctx.jc_g ~modname:ctx.jc_mod hd with
            | Some id -> ctx.jc_djs.(id) || arg_dj
            | None -> arg_dj))
    | Texp_let (_, vbs, b) ->
        List.exists (fun (vb : Typedtree.value_binding) -> dj ctx vb.vb_expr) vbs
        || dj ctx b
    | Texp_sequence (a, b) -> dj ctx a || dj ctx b
    | Texp_ifthenelse (c, a, b) -> (
        dj ctx c
        || match b with Some b -> dj ctx a && dj ctx b | None -> false)
    | Texp_match (scr, cases, _) ->
        dj ctx scr
        || cases <> []
           && List.for_all
                (fun (c : Typedtree.computation Typedtree.case) ->
                  c.c_guard = None && dj ctx c.c_rhs)
                cases
    | Texp_try (b, cases) ->
        dj ctx b
        && List.for_all
             (fun (c : Typedtree.value Typedtree.case) -> dj ctx c.c_rhs)
             cases
    | Texp_construct (_, _, es) | Texp_tuple es -> List.exists (dj ctx) es
    | Texp_variant (_, Some e) | Texp_field (e, _, _) -> dj ctx e
    | Texp_setfield (r, _, _, v) -> dj ctx r || dj ctx v
    | _ -> false

(* Calling a function definitely journals when every body under its
   parameter spine does. *)
let rec dj_def ctx (e : Typedtree.expression) =
  if is_arrow e.exp_type then
    match child_exprs e with
    | [] -> false
    | cs -> List.for_all (dj_def ctx) cs
  else dj ctx e

(* The dominance walk: thread "a Wal.append has definitely happened"
   through evaluation order, emit a finding at every observable site
   reached with the flag down. Returns the post-state. *)
let rec jwalk ctx ~emit ~ack s (e : Typedtree.expression) =
  if is_arrow e.exp_type then begin
    (* A function value: its body runs later, under an unknown journal
       state — walk it pessimistically. *)
    List.iter
      (fun c -> ignore (jwalk ctx ~emit ~ack false c))
      (child_exprs e);
    s
  end
  else
    match e.exp_desc with
    | Texp_sequence (a, b) -> jwalk ctx ~emit ~ack (jwalk ctx ~emit ~ack s a) b
    | Texp_let (_, vbs, b) ->
        let s' =
          List.fold_left
            (fun s (vb : Typedtree.value_binding) ->
              jwalk ctx ~emit ~ack s vb.vb_expr)
            s vbs
        in
        jwalk ctx ~emit ~ack s' b
    | Texp_ifthenelse (c, a, bo) -> (
        let sc = jwalk ctx ~emit ~ack s c in
        let pa = jwalk ctx ~emit ~ack sc a in
        match bo with
        | Some b -> pa && jwalk ctx ~emit ~ack sc b
        | None -> sc)
    | Texp_match (scr, cases, _) -> (
        let ss = jwalk ctx ~emit ~ack s scr in
        let posts =
          List.map
            (fun (c : Typedtree.computation Typedtree.case) ->
              (match c.c_guard with
              | Some gd -> ignore (jwalk ctx ~emit ~ack ss gd)
              | None -> ());
              jwalk ctx ~emit ~ack ss c.c_rhs)
            cases
        in
        match posts with [] -> ss | l -> List.fold_left ( && ) true l)
    | Texp_try (b, cases) ->
        let pb = jwalk ctx ~emit ~ack s b in
        List.fold_left
          (fun acc (c : Typedtree.value Typedtree.case) ->
            (* the body may have raised before journaling *)
            acc && jwalk ctx ~emit ~ack s c.c_rhs)
          pb cases
    | Texp_while (c, b) ->
        let sc = jwalk ctx ~emit ~ack s c in
        ignore (jwalk ctx ~emit ~ack sc b);
        sc
    | Texp_for (_, _, lo, hi, _, b) ->
        let s' = jwalk ctx ~emit ~ack (jwalk ctx ~emit ~ack s lo) hi in
        ignore (jwalk ctx ~emit ~ack s' b);
        s'
    | Texp_setfield (r, _, lbl, v) ->
        ignore (jwalk ctx ~emit ~ack s r);
        ignore (jwalk ctx ~emit ~ack s v);
        if not s then emit (`Setfield lbl.Types.lbl_name) e.exp_loc;
        s
    | Texp_construct (_, cd, es) ->
        List.iter (fun e -> ignore (jwalk ctx ~emit ~ack s e)) es;
        if ack && cd.Types.cstr_name = "Ok" && not s then
          emit `Ack e.exp_loc;
        s || List.exists (dj ctx) es
    | _ ->
        List.iter
          (fun c ->
            let s0 = if is_arrow c.Typedtree.exp_type then false else s in
            ignore (jwalk ctx ~emit ~ack s0 c))
          (child_exprs e);
        s || dj ctx e

let r13_journal ?(in_scope = default_service_scope)
    ?(ack_funs = [ "Service.submit" ]) ?(observable_fields = [ "ji_state" ])
    tnt g sources =
  let bodies = Taint.bodies tnt in
  let djs = Array.make (Callgraph.size g) false in
  let ctx_for id =
    {
      jc_g = g;
      jc_mod = (Callgraph.node g id).Callgraph.modname;
      jc_djs = djs;
      jc_heads = (fun n -> n = "Wal.append");
    }
  in
  (* Bottom-up summaries; bodies come in ascending SCC order, so one
     extra sweep settles within-SCC recursion. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (id, body) ->
        if (not djs.(id)) && dj_def (ctx_for id) body then begin
          djs.(id) <- true;
          changed := true
        end)
      bodies
  done;
  let mods = by_module sources in
  let findings = ref [] in
  List.iter
    (fun (id, body) ->
      let n = Callgraph.node g id in
      match Hashtbl.find_opt mods n.Callgraph.modname with
      | Some (s : Typed_rules.source)
        when in_scope s && n.Callgraph.toplevel ->
          let ack = List.mem n.Callgraph.name ack_funs in
          let emit what (loc : Location.t) =
            let key, msg =
              match what with
              | `Setfield lbl ->
                  if not (List.mem lbl observable_fields) then ("", "")
                  else
                    ( Printf.sprintf "journal:%s@%s" lbl n.Callgraph.short,
                      Printf.sprintf
                        "client-observable field %s is mutated before any \
                         Wal.append on this path; journal the event first \
                         so recovery replays it"
                        lbl )
              | `Ack ->
                  ( Printf.sprintf "journal:ok@%s" n.Callgraph.short,
                    "Ok ack constructed before any Wal.append on this \
                     path; acknowledged jobs must survive a crash" )
            in
            if key <> "" then
              findings :=
                Lint_finding.v ~rule:Lint_finding.R13 ~file:s.s_file
                  ~line:(loc_line loc) ~col:(loc_col loc) ~key msg
                :: !findings
          in
          ignore (jwalk (ctx_for id) ~emit ~ack false body)
      | _ -> ())
    bodies;
  List.rev !findings

(* --- R14: resource release --------------------------------------------- *)

let acquire_heads =
  [
    "Unix.openfile"; "Unix.socket"; "Unix.accept"; "open_in"; "open_in_bin";
    "open_in_gen"; "open_out"; "open_out_bin"; "open_out_gen";
    "Isolate.spawn";
  ]

let release_heads =
  [
    "Unix.close"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "Isolate.await"; "Isolate.kill"; "Isolate.poll";
  ]

let mentions stamps (e : Typedtree.expression) =
  let found = ref false in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self ce ->
          (match ce.Typedtree.exp_desc with
          | Texp_ident (p, _, _) -> (
              match Callgraph.local_key p with
              | Some k when List.mem k stamps -> found := true
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self ce);
    }
  in
  iter.Tast_iterator.expr iter e;
  !found

(* Does the handle escape the analyzed scope — returned, aliased,
   stored, or passed to a defined function? Escaped handles are
   someone else's to close (the quiet direction). Mentions in argument
   position of an unknown external (Unix.read, comparisons, the
   Fun.protect closures) are uses, not escapes. *)
let escapes g ~modname stamps (body : Typedtree.expression) =
  let esc = ref false in
  let is_stamp p =
    match Callgraph.local_key p with
    | Some k -> List.mem k stamps
    | None -> false
  in
  let rec go escaping (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> if escaping && is_stamp p then esc := true
    | Texp_apply (hd, args) ->
        go true hd;
        let escaping_args =
          match head_name hd with
          | Some _ ->
              (* defined: escape; external: use *)
              head_node g ~modname hd <> None
          | None -> true  (* computed head: conservative *)
        in
        List.iter
          (fun (_, a) -> match a with Some a -> go escaping_args a | None -> ())
          args
    | Texp_tuple es | Texp_construct (_, _, es) -> List.iter (go true) es
    | Texp_setfield (r, _, _, v) ->
        go true r;
        go true v
    | Texp_let (_, vbs, b) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> go true vb.vb_expr)
          vbs;
        go escaping b
    | Texp_sequence (a, b) ->
        go escaping a;
        go escaping b
    | Texp_ifthenelse (c, a, b) ->
        go escaping c;
        go escaping a;
        (match b with Some b -> go escaping b | None -> ())
    | Texp_match (scr, cases, _) ->
        go escaping scr;
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            go escaping c.c_rhs)
          cases
    | Texp_try (b, cases) ->
        go escaping b;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) -> go escaping c.c_rhs)
          cases
    | Texp_while (c, b) ->
        go escaping c;
        go escaping b
    | Texp_for (_, _, lo, hi, _, b) ->
        go escaping lo;
        go escaping hi;
        go escaping b
    | Texp_field (r, _, _) -> go escaping r
    | _ ->
        if is_arrow e.exp_type then
          (* closure: capture keeps the current context — a lambda
             handed to an external (List.iter, Fun.protect) is a use *)
          List.iter (go escaping) (child_exprs e)
        else List.iter (go true) (child_exprs e)
  in
  go true body;
  !esc

(* Must-release: on every syntactic path through [e], some release
   head (or a Fun.protect ~finally) is applied to the handle.
   Exception paths are Fun.protect's job (documented, not enforced). *)
let rec released g stamps (e : Typedtree.expression) =
  if is_arrow e.exp_type then false
  else
    match e.exp_desc with
    | Texp_apply (hd, args) -> (
        let some_arg f =
          List.exists
            (fun (_, a) -> match a with Some a -> f a | None -> false)
            args
        in
        match head_name hd with
        | Some n when List.mem n release_heads ->
            some_arg (mentions stamps) || some_arg (released g stamps)
        | Some "Fun.protect" ->
            List.exists
              (fun ((l, a) : Asttypes.arg_label * _) ->
                match (l, a) with
                | Asttypes.Labelled "finally", Some fin ->
                    mentions stamps fin
                | _ -> false)
              args
            || some_arg (released g stamps)
        | _ -> some_arg (released g stamps))
    | Texp_let (_, vbs, b) ->
        List.exists
          (fun (vb : Typedtree.value_binding) -> released g stamps vb.vb_expr)
          vbs
        || released g stamps b
    | Texp_sequence (a, b) -> released g stamps a || released g stamps b
    | Texp_ifthenelse (c, a, b) -> (
        released g stamps c
        ||
        match b with
        | Some b -> released g stamps a && released g stamps b
        | None -> false)
    | Texp_match (scr, cases, _) ->
        released g stamps scr
        || cases <> []
           && List.for_all
                (fun (c : Typedtree.computation Typedtree.case) ->
                  c.c_guard = None && released g stamps c.c_rhs)
                cases
    | Texp_try (b, cases) ->
        released g stamps b
        && List.for_all
             (fun (c : Typedtree.value Typedtree.case) ->
               released g stamps c.c_rhs)
             cases
    | Texp_construct (_, _, es) | Texp_tuple es ->
        List.exists (released g stamps) es
    | Texp_variant (_, Some e) | Texp_field (e, _, _) -> released g stamps e
    | Texp_setfield (r, _, _, v) ->
        released g stamps r || released g stamps v
    | _ -> false

let r14_release ?(in_scope = fun _ -> true) tnt g sources =
  let mods = by_module sources in
  let findings = ref [] in
  List.iter
    (fun (id, body) ->
      let n = Callgraph.node g id in
      match Hashtbl.find_opt mods n.Callgraph.modname with
      | Some (s : Typed_rules.source) when in_scope s ->
          let rec scan (e : Typedtree.expression) =
            (match e.exp_desc with
            | Texp_let (Asttypes.Nonrecursive, vbs, letbody) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match vb.vb_expr.exp_desc with
                    | Texp_apply (hd, _) -> (
                        match head_name hd with
                        | Some hn when List.mem hn acquire_heads ->
                            let stamps =
                              List.map Ident.unique_name
                                (Typedtree.pat_bound_idents vb.vb_pat)
                            in
                            if
                              stamps <> []
                              && (not
                                    (escapes g ~modname:n.Callgraph.modname
                                       stamps letbody))
                              && not (released g stamps letbody)
                            then
                              let short =
                                match String.rindex_opt hn '.' with
                                | Some i ->
                                    String.sub hn (i + 1)
                                      (String.length hn - i - 1)
                                | None -> hn
                              in
                              findings :=
                                Lint_finding.v ~rule:Lint_finding.R14
                                  ~file:s.s_file
                                  ~line:(loc_line vb.vb_pat.pat_loc)
                                  ~col:(loc_col vb.vb_pat.pat_loc)
                                  ~key:
                                    (Printf.sprintf "leak:%s@%s" short
                                       n.Callgraph.short)
                                  (Printf.sprintf
                                     "handle from %s is not released on \
                                      every path; close it in a Fun.protect \
                                      ~finally (or reap the Isolate child)"
                                     hn)
                                :: !findings
                        | _ -> ())
                    | _ -> ())
                  vbs
            | _ -> ());
            let iter =
              {
                Tast_iterator.default_iterator with
                expr = (fun _ ce -> scan ce);
              }
            in
            Tast_iterator.default_iterator.expr iter e
          in
          scan body
      | _ -> ())
    (Taint.bodies tnt);
  List.rev !findings

(* --- the exactness report ---------------------------------------------- *)

let report_header =
  "# Exactness-boundary report\n\n\
   Generated by cqlint's float-taint inference (R12) — do not edit by\n\
   hand. Regenerate with:\n\n\
   ```\n\
   dune exec bin/lint.exe -- --root . --taint-report > docs/EXACTNESS.md\n\
   ```\n\n\
   Every exported `lib/core`/`lib/linsep` entry point is classified\n\
   against the paper's exactness guarantee:\n\n\
   - **exact** — no float reachability at all: the answer is computed\n\
     in `Rat` end to end;\n\
   - **certified** — the float-first tier (PR 6) runs below it, but\n\
     every verdict is re-derived exactly (`Certify.hyperplane`/`farkas`\n\
     or exact `Rat.of_float`) before it can reach the caller: the\n\
     taint summary is clean;\n\
   - **TAINTED** — an unsanitized float source reaches the return\n\
     value; the witness names the source. This is an R12 finding and\n\
     fails CI.\n"

let exactness_report tnt g sources =
  let eps =
    List.filter
      (fun ((s : Typed_rules.source), _, _) -> default_sink_scope s)
      (Typed_rules.entry_points g sources)
  in
  let by_mod = Hashtbl.create 16 in
  List.iter
    (fun ((s : Typed_rules.source), name, node) ->
      let prev =
        match Hashtbl.find_opt by_mod s.s_mod with Some l -> l | None -> []
      in
      Hashtbl.replace by_mod s.s_mod ((s, name, node) :: prev))
    eps;
  let mods =
    List.sort_uniq compare
      (List.map (fun ((s : Typed_rules.source), _, _) -> s.s_mod) eps)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf report_header;
  List.iter
    (fun m ->
      let entries =
        List.sort
          (fun (_, a, _) (_, b, _) -> compare a b)
          (Hashtbl.find by_mod m)
      in
      let file =
        match entries with
        | ((s : Typed_rules.source), _, _) :: _ -> s.s_file
        | [] -> ""
      in
      Buffer.add_string buf (Printf.sprintf "\n## %s — `%s`\n\n" m file);
      Buffer.add_string buf "| entry point | verdict |\n|---|---|\n";
      List.iter
        (fun (_, name, node) ->
          let verdict =
            match Taint.return_taint tnt node with
            | Some why -> Printf.sprintf "**TAINTED** — %s" why
            | None ->
                if Taint.touches_float tnt node then "certified" else "exact"
          in
          Buffer.add_string buf (Printf.sprintf "| `%s` | %s |\n" name verdict))
        entries)
    mods;
  let total = List.length eps in
  let tainted =
    List.length
      (List.filter (fun (_, _, n) -> Taint.return_taint tnt n <> None) eps)
  in
  let certified =
    List.length
      (List.filter
         (fun (_, _, n) ->
           Taint.return_taint tnt n = None && Taint.touches_float tnt n)
         eps)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\n---\n\n%d entry points: %d exact, %d certified, %d tainted.\n"
       total
       (total - tainted - certified)
       certified tainted);
  Buffer.contents buf

(* --- driver entry ------------------------------------------------------ *)

let run ~rules tnt g sources =
  let on r = List.mem r rules in
  (if on Lint_finding.R12 then r12_float_taint tnt g sources else [])
  @ (if on Lint_finding.R13 then r13_journal tnt g sources else [])
  @ if on Lint_finding.R14 then r14_release tnt g sources else []
