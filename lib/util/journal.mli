(** Append-only, checksummed key/value journal — the persistence layer of
    checkpoint-resume for long sweeps. Each record carries its own
    checksum, so a process killed mid-write leaves a torn tail that is
    detected and dropped on the next open; every record that was fully
    appended before the crash survives.

    On-disk framing (ints are 8-byte little-endian, as in the binary
    trace format):

    {v
    magic "HSCDJNL1"
    record := key_len, key bytes, payload_len, payload bytes, checksum
    v}

    The checksum is an order-sensitive avalanche fold over the record's
    lengths and bytes: a flipped bit anywhere in a record invalidates it.
    Corrupt or torn records end the valid prefix — everything after them
    is discarded by {!open_append} (atomically, via rewrite + rename). *)

type t

(** Records of the valid prefix, in append order. [Ok []] when the file
    does not exist. [Error _] when it exists but is not a journal
    (foreign magic) or cannot be read. *)
val load : string -> ((string * string) list, Hscd_error.t) result

(** Open for appending, creating the file (with magic) if absent and
    truncating any torn/corrupt tail first. The returned handle carries
    the recovered records ({!entries}). *)
val open_append : string -> (t, Hscd_error.t) result

(** The records recovered when the handle was opened. *)
val entries : t -> (string * string) list

(** Append one record and flush+fsync it (durable once [append]
    returns). *)
val append : t -> key:string -> string -> unit

val close : t -> unit

(** [with_journal path f] opens, runs [f], and always closes. *)
val with_journal : string -> (t -> ('a, Hscd_error.t) result) -> ('a, Hscd_error.t) result
