(** Per-processor "line ever fetched" maps, for cold vs replacement miss
    classification.

    A map holds one bit per line, [ceil (lines / 8)] bytes. Every
    processor starts on one shared, read-only all-zero map; {!mark} gives
    a processor its own map on its first fetch. Building the maps of a
    P-processor machine therefore costs one map plus P pointers, and a
    machine pays P·lines bits only for the processors its trace actually
    runs. *)

type t

val create : processors:int -> lines:int -> t

(** Record that [proc] has fetched memory line [line]. *)
val mark : t -> proc:int -> int -> unit

(** Has [proc] ever fetched memory line [line]? One byte load and a mask. *)
val was_fetched : t -> proc:int -> int -> bool
