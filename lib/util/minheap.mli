(** Binary min-heap over [(key, value)] integer pairs, ordered by key and
    breaking ties on the smaller value.

    A test reference, not a production queue: it is the ready queue of
    the boxed reference replay ([Engine.run_boxed]), which only tests
    call, and the test suite checks [Engine.run]'s own packed-key queue
    ([Engine.Ready]) against it. Key is a processor clock, value a
    processor index, so [pop] yields the lowest-clock processor and
    resolves clock ties to the lowest index — identical ordering to a
    linear scan over processors, at O(log n) per operation. *)

type t

val create : int -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> key:int -> int -> unit

(** Smallest [(key, value)]; [None] when empty. *)
val pop : t -> (int * int) option
