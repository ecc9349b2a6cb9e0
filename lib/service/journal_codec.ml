(* Checksummed framing for the write-ahead log.

   A frame is [magic "CQW1"][length u32be][crc32 u32be][payload]: the
   fixed header makes torn tails detectable (a partial header or a
   payload shorter than its declared length decodes as [Truncated]),
   and the CRC catches a torn payload whose length happens to fit.
   Big-endian fixed-width integers keep the on-disk format independent
   of the host, and [decode] never trusts [length] beyond the bytes
   actually present. *)

let magic = "CQW1"
let header_len = String.length magic + 4 + 4

(* Declared payload lengths above this are treated as corruption: no
   legitimate journal record is remotely close, and the cap stops a
   flipped length byte from turning one bad frame into a huge bogus
   allocation. *)
let max_payload = 16 * 1024 * 1024

let put_u32be buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32be s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let encode payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg "Journal_codec.encode: payload exceeds 16 MiB";
  let buf = Buffer.create (header_len + n) in
  Buffer.add_string buf magic;
  put_u32be buf n;
  put_u32be buf (Model_io.crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

type error =
  | Truncated
  | Corrupt of string

let error_to_string = function
  | Truncated -> "truncated frame (torn tail write)"
  | Corrupt what -> "corrupt frame: " ^ what

let decode s ~pos =
  let len = String.length s in
  if pos < 0 || pos > len then invalid_arg "Journal_codec.decode: bad position";
  if len - pos < header_len then Error Truncated
  else if String.sub s pos (String.length magic) <> magic then
    Error (Corrupt "bad magic")
  else begin
    let plen = get_u32be s (pos + String.length magic) in
    let crc = get_u32be s (pos + String.length magic + 4) in
    if plen > max_payload then Error (Corrupt "implausible length")
    else if len - pos - header_len < plen then Error Truncated
    else
      let payload = String.sub s (pos + header_len) plen in
      if Model_io.crc32 payload <> crc then Error (Corrupt "checksum mismatch")
      else Ok (payload, pos + header_len + plen)
  end
