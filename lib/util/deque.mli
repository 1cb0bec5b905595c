(** Growable ring-buffer FIFO with amortized O(1) push and pop.

    The engine's work queues (per-processor pending lists and the shared
    self-scheduling queue) were list appends — O(n) per push, quadratic per
    epoch. This deque replaces them. Not thread-safe: each simulation run
    owns its queues. *)

type 'a t

(** Fresh empty deque; [capacity] is a size hint. *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

(** The front element, removed, or [empty] when the deque is empty;
    allocates nothing. *)
val pop_front_or : 'a t -> empty:'a -> 'a

val clear : 'a t -> unit

(** Front-to-back order. *)
val to_list : 'a t -> 'a list
