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

let module_name_of_source file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

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

(* Dune puts a library's annotations in `<dir>/.<libname>.objs/byte/`.
   When linting from a source checkout (rather than from inside
   `_build/default`, where the @lint alias runs), fall back to the
   default build context. *)
let obj_dir_candidates ~root ~rel_dir ~lib_name =
  let objs base =
    Filename.concat
      (Filename.concat base rel_dir)
      (Filename.concat ("." ^ lib_name ^ ".objs") "byte")
  in
  [ objs root; objs (Filename.concat root (Filename.concat "_build" "default")) ]

let find_obj_dir ~root ~rel_dir ~lib_name =
  List.find_opt Sys.file_exists (obj_dir_candidates ~root ~rel_dir ~lib_name)

let load_units ~root ~rel_dir ~lib_name ~ml ~mli =
  let obj_dir = find_obj_dir ~root ~rel_dir ~lib_name in
  let bases =
    List.sort_uniq String.compare
      (List.map Filename.remove_extension (ml @ mli))
  in
  List.map
    (fun base ->
      let has l ext = List.mem (base ^ ext) l in
      let rel ext =
        if has (if ext = ".ml" then ml else mli) ext then
          Some (Filename.concat rel_dir (base ^ ext))
        else None
      in
      let annot reader ext =
        match obj_dir with
        | None -> None
        | Some d -> begin
            match reader (Filename.concat d (base ^ ext)) with
            | Ok x -> Some x
            | Error _ -> None
          end
      in
      {
        u_module = String.capitalize_ascii base;
        u_ml = rel ".ml";
        u_mli = rel ".mli";
        u_impl = (if has ml ".ml" then annot read_impl ".cmt" else None);
        u_intf = (if has mli ".mli" then annot read_intf ".cmti" else None);
      })
    bases

let unannotated units =
  List.concat_map
    (fun u ->
      let miss src annot = match (src, annot) with
        | Some p, None -> [ p ]
        | _ -> []
      in
      miss u.u_ml u.u_impl @ miss u.u_mli u.u_intf)
    units
