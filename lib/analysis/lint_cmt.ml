(* Loading dune's -bin-annot output for the typed lint pass.

   Version discipline: [Cmt_format.read_cmt] and the [binary_annots]
   constructors matched here are stable across 4.14..5.x. Everything
   else about a cmt (its marshalled environment, shapes, ...) is
   ignored; a cmt written by a different compiler version fails the
   magic-number check inside [read_cmt] and is reported as missing,
   never as a crash. *)

type unit_info = {
  u_module : string;
  u_ml : string option;
  u_mli : string option;
  u_impl : Typedtree.structure option;
  u_intf : Typedtree.signature option;
}

let read_annots path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    match (Cmt_format.read_cmt path).Cmt_format.cmt_annots with
    | annots -> Ok annots
    | exception e -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string e))

let read_impl path =
  match read_annots path with
  | Error _ as e -> e
  | Ok (Cmt_format.Implementation str) -> Ok str
  | Ok _ -> Error (path ^ ": not an implementation cmt")

let read_intf path =
  match read_annots path with
  | Error _ as e -> e
  | Ok (Cmt_format.Interface sg) -> Ok sg
  | Ok _ -> Error (path ^ ": not an interface cmti")

(* Dune puts a library's annotations in `<dir>/.<libname>.objs/byte/`,
   and an executables stanza's in `<dir>/.<exe>.eobjs/byte/`, prefixed
   `dune__exe__`. When linting from a source checkout (rather than from
   inside `_build/default`, where the @lint alias runs), fall back to
   the default build context. *)
let context_dirs ~root ~rel_dir =
  [ root; Filename.concat root (Filename.concat "_build" "default") ]
  |> List.map (fun base -> Filename.concat base rel_dir)

let obj_dir_candidates ~root ~rel_dir ~lib_name =
  List.map
    (fun d ->
      Filename.concat d (Filename.concat ("." ^ lib_name ^ ".objs") "byte"))
    (context_dirs ~root ~rel_dir)

let find_obj_dir ~root ~rel_dir ~lib_name =
  List.find_opt Sys.file_exists (obj_dir_candidates ~root ~rel_dir ~lib_name)

(* Every `.<exe>.eobjs/byte` directory, one per executables stanza,
   in both contexts. *)
let exec_obj_dirs ~root ~rel_dir =
  List.concat_map
    (fun d ->
      match Sys.readdir d with
      | exception Sys_error _ -> []
      | entries ->
          List.sort String.compare (Array.to_list entries)
          |> List.filter (fun e -> Filename.check_suffix e ".eobjs")
          |> List.map (fun e -> Filename.concat (Filename.concat d e) "byte"))
    (context_dirs ~root ~rel_dir)

(* [annot file] is the path [file] (a bare [base.cmt]/[base.cmti]) is
   read from, if any. *)
let load ~rel_dir ~ml ~mli annot =
  let bases =
    List.sort_uniq String.compare
      (List.map Filename.remove_extension (ml @ mli))
  in
  List.map
    (fun base ->
      let has l ext = List.mem (base ^ ext) l in
      let rel l ext =
        if has l ext then Some (Filename.concat rel_dir (base ^ ext)) else None
      in
      let read reader l ext cext =
        if not (has l ext) then None
        else
          Option.bind (annot (base ^ cext)) (fun path ->
              Result.to_option (reader path))
      in
      {
        u_module = String.capitalize_ascii base;
        u_ml = rel ml ".ml";
        u_mli = rel mli ".mli";
        u_impl = read read_impl ml ".ml" ".cmt";
        u_intf = read read_intf mli ".mli" ".cmti";
      })
    bases

let load_units ~root ~rel_dir ~lib_name ~ml ~mli =
  let obj_dir = find_obj_dir ~root ~rel_dir ~lib_name in
  load ~rel_dir ~ml ~mli (fun file ->
      Option.map (fun d -> Filename.concat d file) obj_dir)

let load_exec_units ~root ~rel_dir ~ml ~mli =
  let dirs = exec_obj_dirs ~root ~rel_dir in
  load ~rel_dir ~ml ~mli (fun file ->
      List.find_opt Sys.file_exists
        (List.map
           (fun d ->
             Filename.concat d ("dune__exe__" ^ String.capitalize_ascii file))
           dirs))

let unannotated units =
  List.concat_map
    (fun u ->
      let miss src annot = match (src, annot) with
        | Some p, None -> [ p ]
        | _ -> []
      in
      miss u.u_ml u.u_impl @ miss u.u_mli u.u_intf)
    units
