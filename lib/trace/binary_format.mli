(** A compact binary encoding of activity logs.

    Kernel tracing at syscall granularity produces bulky logs (the paper's
    runs log hundreds of thousands of records); the text format spends
    most of its bytes repeating hostnames, program names and near-constant
    timestamps. This encoding keeps collection practical:

    - a string table interns hostnames and program names once;
    - timestamps are delta-encoded per log (monotone, so deltas are
      small), everything integer is LEB128 varints;
    - a magic header ([PTB1]) and record framing catch truncation and
      corruption on load.

    Typical size: 4-6x smaller than the text format on service traces
    (see the [formats] bench). Both formats describe the same
    {!Activity.t}; conversion is lossless. *)

val magic : string
(** The 4-byte file header, ["PTB1"]. *)

(** {1 Codec primitives}

    The one byte-codec toolkit every PT binary format shares — PTB1
    itself, agent frames, the boundary table, the shard-to-root path
    message, store segments, the bundle container and its back-link
    table: unsigned LEB128 varints, zigzag-encoded signed varints,
    length-prefixed strings, big-endian fixed-width integers, and a
    bounds-checked reader whose [Corrupt] errors carry offsets absolute
    within [data].

    Every decoder runs through {!decode_region}, so every decode error
    reads [corrupt at offset N: reason], with [N] absolute within the
    input string — for a section of a larger file, an offset into that
    file. *)

exception Corrupt of int * string

type reader = { data : string; mutable pos : int; limit : int }

val put_uvarint : Buffer.t -> int -> unit
val put_varint : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit

val put_string32 : Buffer.t -> string -> unit
(** A big-endian u32 length, then the bytes: the framing of the PTS1 and
    PTZ1 JSON headers and the PTZ1 section names. *)

val put_u64be : Buffer.t -> int -> unit

val decode_region :
  ?magic:string -> string -> pos:int -> len:int -> (reader -> 'a) -> ('a, string) result
(** [decode_region ?magic data ~pos ~len f] checks that [pos, pos+len) lies
    inside [data] and that it starts with [magic] (default: none), then
    runs [f] on a reader over the rest of the region. [f] must consume
    the region exactly: trailing bytes are an error. [Corrupt] and
    [Invalid_argument] never escape; they come back as
    [Error "corrupt at offset N: reason"]. *)

val get_uvarint : reader -> int
val get_varint : reader -> int
val get_string : reader -> string

val get_count : reader -> string -> int
(** Read a count varint, raising [Corrupt] if it exceeds the remaining
    input (each counted item takes at least one byte) — the allocation-
    bomb guard for corrupt inputs. *)

val get_index : reader -> int -> string -> int
(** [get_index r n what] reads a uvarint index into a table of [n]
    entries; [Corrupt] names [what] if it is out of range. *)

val get_u64be : reader -> int
(** [Corrupt] on overrun, and on values beyond [max_int]. *)

val get_string32 : reader -> string
(** The inverse of {!put_string32}: one header read for PTS1 and PTZ1. *)

val skip : reader -> int -> string -> int
(** [skip r n what] steps over [n] bytes and returns the offset they start
    at; [Corrupt] (naming [what]) if they overrun the region. *)

val get_endpoints : reader -> (int -> int -> int -> int -> 'a) -> 'a
(** [get_endpoints r k] reads an endpoint quadruple — src ip, src port,
    dst ip, dst port, as uvarints — and passes it to [k]. The one
    validation for every format that ships flows: ips in the 32-bit
    range, ports in the 16-bit range, else [Corrupt]. *)

val is_binary : string -> bool
(** Whether the bytes begin with {!magic}. *)

val is_binary_file : path:string -> bool
(** Whether the file at [path] starts with {!magic}; [false] on
    unreadable or shorter-than-header files. Lets loaders auto-detect
    binary vs text traces without trusting the filename. *)

val save : Log.collection -> path:string -> unit
(** Write the whole collection into one file. *)

val load : path:string -> (Log.collection, string) result
(** Read a file written by {!save}. Errors name the offending offset. *)

val encode : Log.collection -> string
(** The raw encoded bytes (exposed for tests and benches). Equivalent to
    [encode_native (Arena.of_collection c)] — the record-list API is a
    wrapper over the native path, byte-for-byte. *)

val decode : string -> (Log.collection, string) result

(** {1 Native path}

    The arena-backed codec the pipeline runs on: table entries are
    interned into the process-wide {!Intern} tables once per file, record
    rows decode straight into {!Arena}s with no per-record allocation.
    Same bytes, same corruption guarantees (never raises, [Corrupt]
    offsets absolute within [data]) as the record-list API above. *)

val encode_native : Arena.t list -> string

val decode_native : string -> (Arena.t list, string) result
(** Rows come back in file order (the order they were encoded), not
    re-sorted; {!Arena.to_log} restores [Log] order when needed. *)

val decode_native_region : string -> pos:int -> len:int -> (Arena.t list, string) result
(** {!decode_native} for a payload embedded at [pos] (spanning [len]
    bytes) inside a larger string — e.g. a segment inside a bundle
    container — without copying it out. Every error offset is absolute
    within [data], so when [data] is a whole container file the offsets
    are container-relative. *)
