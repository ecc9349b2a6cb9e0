(** Checksummed framing for the {!Wal} write-ahead log.

    A frame is [magic "CQW1" | length (u32 BE) | crc32 (u32 BE) |
    payload]. The magic and declared length make a torn tail write
    decode as {!Truncated}; the CRC-32 ({!Model_io.crc32}) catches
    payload corruption the length cannot. Frames are self-delimiting,
    so a log is replayed by decoding frames back to back until the
    bytes run out. *)

val header_len : int
(** Bytes of framing overhead per record. *)

val max_payload : int
(** Largest accepted payload (16 MiB); a declared length above it is
    treated as corruption rather than allocated. *)

val encode : string -> string
(** [encode payload] is the framed record.
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

(** Why a frame failed to decode. [Truncated] — the bytes end mid-frame
    (the torn-tail signature of a crash during {!Wal.append}); [Corrupt]
    — the bytes are present but wrong (bad magic, implausible length,
    checksum mismatch). *)
type error =
  | Truncated
  | Corrupt of string

val error_to_string : error -> string

val decode : string -> pos:int -> (string * int, error) result
(** [decode s ~pos] decodes the frame starting at [pos], returning the
    payload and the offset just past the frame.
    @raise Invalid_argument when [pos] is outside [s]. *)
