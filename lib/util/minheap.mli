(** Binary min-heap over [(key, value)] integer pairs, ordered by key and
    breaking ties on the smaller value.

    The ready queue of the boxed reference replay ([Engine.run_boxed]):
    key is a processor clock, value a processor index, so [pop] yields the
    lowest-clock processor and resolves clock ties to the lowest index —
    identical ordering to a linear scan over processors, at O(log n) per
    operation. [Engine.run] uses its own packed-key queue, which the test
    suite checks against this one. *)

type t

val create : int -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> key:int -> int -> unit

(** Smallest [(key, value)]; [None] when empty. *)
val pop : t -> (int * int) option

val peek : t -> (int * int) option

val clear : t -> unit
