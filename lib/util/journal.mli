(** Append-only, checksummed key/value journal — the persistence layer of
    checkpoint-resume for long sweeps. Each record carries its own
    checksum, so a process killed mid-write leaves a torn tail that is
    detected and dropped on the next open; every record that was fully
    appended before the crash survives.

    On-disk framing (ints are 8-byte little-endian):

    {v
    magic "HSCDJNL1"
    record := key_len, key bytes, payload_len, payload bytes, checksum
    v}

    The checksum is an order-sensitive avalanche fold over the record's
    lengths and bytes: a flipped bit anywhere in a record invalidates it.
    Corrupt or torn records end the valid prefix — everything after them
    is discarded by {!open_append} (atomically, via rewrite + rename). *)

type t

(** A record of the valid prefix: [offset] is the byte position of its
    first length field, where {!read} finds it again. *)
type record = { key : string; offset : int; payload : string }

(** Records of the valid prefix, in append order. [Ok []] when the file
    does not exist. [Error _] when it exists but is not a journal
    (foreign magic) or cannot be read. *)
val load : string -> ((string * string) list, Hscd_error.t) result

(** Open for appending, creating the file (with magic) if absent and
    truncating any torn/corrupt tail first. Returns the handle and the
    records recovered from the valid prefix; the handle keeps none of
    them. *)
val open_append : string -> (t * record list, Hscd_error.t) result

(** Append one record and flush+fsync it (durable once [append]
    returns). Returns the record's offset. *)
val append : t -> key:string -> string -> int

(** [read t offset] reads back the record at [offset] (from {!append} or
    a recovered {!record}) as [(key, payload)], through one read-only
    descriptor opened on first use. A record that fails its checksum, or
    an offset that is not a record start, is [Error] of kind [Corrupt];
    [read] never raises. *)
val read : t -> int -> (string * string, Hscd_error.t) result

(** Close the append channel and the read-back descriptor. *)
val close : t -> unit
