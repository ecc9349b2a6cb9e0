type model = { statistic : Statistic.t; classifier : Linsep.classifier }

exception Parse_error of string

let make statistic classifier =
  if Array.length classifier.Linsep.weights <> List.length statistic then
    invalid_arg "Model_io.make: weight/feature count mismatch";
  { statistic; classifier }

let rat_to_string = Rat.to_string

let rat_of_string s =
  match String.split_on_char '/' (String.trim s) with
  | [ n ] -> Rat.of_bigint (Bigint.of_string n)
  | [ n; d ] -> Rat.make (Bigint.of_string n) (Bigint.of_string d)
  | _ -> raise (Parse_error (Printf.sprintf "bad rational %S" s))

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320); the check
   value of "123456789" is 0xCBF43926, asserted by the registry
   validator. The service library's WAL frames use it too. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         (* cqlint: allow R1 — eight shifts per table entry, fixed bound *)
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let () =
  Runtime_state.register ~name:"core.model_io.crc_table"
    ~validate:(fun () -> crc32 "123456789" = 0xCBF43926)
    (fun () -> ())

let body_to_string m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# cqfeat model v1\n";
  List.iter
    (fun q ->
      Buffer.add_string buf "feature ";
      Buffer.add_string buf (Cq.to_string q);
      Buffer.add_char buf '\n')
    m.statistic;
  Buffer.add_string buf
    (Printf.sprintf "threshold %s\n" (rat_to_string m.classifier.Linsep.threshold));
  Array.iter
    (fun w ->
      Buffer.add_string buf (Printf.sprintf "weight %s\n" (rat_to_string w)))
    m.classifier.Linsep.weights;
  Buffer.contents buf

let to_string = body_to_string

(* The integrity header is a comment line, so a v1 reader parses a v2
   file unchanged; it covers the whole body (length and CRC), so a v2
   reader detects truncation even when the tear happens to fall on a
   line boundary and the remnant would still parse. It comes first —
   not as a footer — because a torn tail is exactly the part of the
   file most likely to be missing. *)
let header_prefix = "# cqfeat model v2 crc32 "

let to_string_checksummed m =
  let body = body_to_string m in
  Printf.sprintf "%s%08x len %d\n%s" header_prefix (crc32 body)
    (String.length body) body

(* [verify_integrity s] checks the v2 header when present. Returns
   unit for legacy (v1, headerless) strings: those predate the
   checksum and still load, just unverified. *)
let verify_integrity s =
  let plen = String.length header_prefix in
  if String.length s >= plen && String.sub s 0 plen = header_prefix then begin
    let line_end =
      match String.index_opt s '\n' with
      | Some i -> i
      | None -> raise (Parse_error "torn model file: header line truncated")
    in
    let rest = String.sub s plen (line_end - plen) in
    let crc, declared_len =
      try Scanf.sscanf rest "%8x len %d%!" (fun c n -> (c, n))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        raise (Parse_error "corrupt model file: malformed integrity header")
    in
    let body = String.sub s (line_end + 1) (String.length s - line_end - 1) in
    if String.length body <> declared_len then
      raise
        (Parse_error
           (Printf.sprintf
              "torn model file: header declares %d body bytes, found %d"
              declared_len (String.length body)));
    if crc32 body <> crc then
      raise (Parse_error "model checksum mismatch (torn or corrupt file)")
  end

let of_string s =
  verify_integrity s;
  let features = ref [] in
  let weights = ref [] in
  let threshold = ref None in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      let fail msg =
        raise (Parse_error (Printf.sprintf "line %d: %s" line_no msg))
      in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else begin
        match String.index_opt line ' ' with
        | None -> fail "expected 'keyword argument'"
        | Some i ->
            let keyword = String.sub line 0 i in
            let arg = String.sub line (i + 1) (String.length line - i - 1) in
            (match keyword with
            | "feature" -> begin
                match Cq_parse.parse arg with
                | q -> features := q :: !features
                | exception Cq_parse.Parse_error msg ->
                    fail ("bad feature: " ^ msg)
              end
            | "threshold" -> begin
                if Option.is_some !threshold then fail "duplicate threshold";
                match rat_of_string arg with
                | r -> threshold := Some r
                | exception _ -> fail "bad threshold"
              end
            | "weight" -> begin
                match rat_of_string arg with
                | r -> weights := r :: !weights
                | exception _ -> fail "bad weight"
              end
            | _ -> fail (Printf.sprintf "unknown keyword %S" keyword))
      end)
    (String.split_on_char '\n' s);
  let statistic = List.rev !features in
  let weights = Array.of_list (List.rev !weights) in
  let threshold =
    match !threshold with
    | Some t -> t
    | None -> raise (Parse_error "missing threshold line")
  in
  if Array.length weights <> List.length statistic then
    raise (Parse_error "weight/feature count mismatch");
  { statistic; classifier = { Linsep.weights; threshold } }

(* Crash seam for the durability tests: the hook fires at each stage
   crossing of an atomic write, and a test hook that SIGKILLs the
   process at the k-th crossing lets a sweep interrupt a publish at
   every intermediate durability state. Production never sets it. *)
type save_stage = Temp_written | Temp_synced | Renamed | Dir_synced

let save_hook : (save_stage -> unit) option ref = ref None
let set_save_hook h = save_hook := h

let () =
  Runtime_state.register ~name:"core.model_io.save_hook" ~kind:`Config
    (fun () -> save_hook := None)

let cross stage = match !save_hook with Some f -> f stage | None -> ()

(* Distinguishes temp files from concurrent writers in the same
   process; uniqueness across processes comes from the pid. *)
let tmp_seq = ref 0

let () =
  Runtime_state.register ~name:"core.model_io.tmp_seq" (fun () -> tmp_seq := 0)

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  (* cqlint: allow R1 — each round trips Unix.write, which either
     advances pos or raises; bounded by the buffer length *)
  while !pos < n do
    pos := !pos + Unix.write fd b !pos (n - !pos)
  done

(* Directory fsync makes the rename itself durable. Some filesystems
   refuse fsync on a directory fd (EINVAL); the write is still atomic
   there, just not yet durable, which matches what the platform can
   promise. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let atomic_write path contents =
  incr tmp_seq;
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_seq in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  (try
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all fd contents;
         cross Temp_written;
         Unix.fsync fd;
         cross Temp_synced)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path;
  cross Renamed;
  fsync_dir (Filename.dirname path);
  cross Dir_synced

let save path m = atomic_write path (to_string_checksummed m)

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

let apply m db = Statistic.induced_labeling m.statistic m.classifier db
