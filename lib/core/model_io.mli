(** Serialization of trained models (statistic + linear classifier).

    A model is rendered as a line-oriented text file:
    {v
      # cqfeat model v2 crc32 9a3e41c2 len 87
      # cqfeat model v1
      feature x :- R(x)
      feature x :- S(y0), E(x,y0)
      threshold -3
      weight 1/2
      weight -27
    v}
    with one [weight] line per feature, in order. Weights and the
    threshold are exact rationals, so a round-trip is lossless —
    including the bignum weights of the chain classifier.

    The first line is an integrity header covering the rest of the
    file (CRC-32 and byte length); it is a [#] comment, so v1 readers
    parse v2 files unchanged, and headerless v1 files still load here
    (unverified). [save] writes atomically: temp file, fsync, rename,
    directory fsync — a reader never observes a torn file, only the
    old contents or the new. *)

type model = { statistic : Statistic.t; classifier : Linsep.classifier }

(** [crc32 s] is the CRC-32 (IEEE 802.3, reflected) of [s]: [crc32
    "123456789"] is [0xCBF43926]. It checks model files here and WAL
    frames in {!Journal_codec}, and seeds per-job jitter from job ids. *)
val crc32 : string -> int

exception Parse_error of string

(** [make statistic classifier] validates the dimensions.
    @raise Invalid_argument on a weight/feature count mismatch. *)
val make : Statistic.t -> Linsep.classifier -> model

val to_string : model -> string

(** [to_string_checksummed m] is [to_string m] prefixed with the
    integrity header; this is the on-disk form [save] writes. *)
val to_string_checksummed : model -> string

(** @raise Parse_error on malformed input, including a torn or
    corrupt file whose integrity header no longer matches its body. *)
val of_string : string -> model

(** [save path model] / [load path] — file-level wrappers. [save] is
    atomic and durable (temp + fsync + rename + directory fsync).
    @raise Sys_error or [Unix.Unix_error] on I/O failure.
    @raise Parse_error on malformed, torn, or corrupt input. *)
val save : string -> model -> unit

val load : string -> model

(** [atomic_write path contents] — the durable-replace primitive
    behind [save], exposed for other small state files (e.g. a model
    store's CURRENT pointer) that need the same old-or-new guarantee.
    @raise Unix.Unix_error on I/O failure. *)
val atomic_write : string -> string -> unit

(** Crash seam for durability tests: stages of [atomic_write] in
    order. A test hook may raise or kill the process mid-write; the
    hook is registered runtime state (kind [`Config]) and is never set
    in production. *)
type save_stage = Temp_written | Temp_synced | Renamed | Dir_synced

val set_save_hook : (save_stage -> unit) option -> unit

(** [apply model db] labels the entities of [db] with the model. *)
val apply : model -> Db.t -> Labeling.t
