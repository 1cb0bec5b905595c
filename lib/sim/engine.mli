(** The multiprocessor timing engine: replays a packed trace against one
    coherence scheme in global clock order, with barriers, ticket-ordered
    critical sections, static/dynamic scheduling, mid-task migration, and
    per-load verification against the golden interpreter. The hot path
    builds no block per event or per task; replay still allocates per
    epoch and as the trace first touches the machine, about 0.64 words
    per event on the benchmark's paper-tables and 2.3 on p1024-sweep. *)

type violation = { epoch : int; proc : int; addr : int; expected : int; got : int }

type result = {
  cycles : int;
  metrics : Metrics.t;
  violations : violation list;  (** capped at {!max_violations} *)
  memory_ok : bool;  (** final scheme memory equals the golden memory *)
  network_load : float;  (** last estimated utilization *)
}

val max_violations : int

(** The ready queue of {!run}: a binary min-heap of packed keys
    [(clock lsl pbits) lor pidx], where [pbits] is the number of bits
    needed for [processors - 1], so one int compare orders by clock and
    then by processor index. Holds at most [processors] keys.

    The key array has one spare slot, and every slot at or past the
    heap's size holds [max_int]. A sift-down therefore always finds a
    right child, and picks the smaller child by adding a compare's
    result to the index rather than branching on it; an empty queue's
    root is [max_int], so {!push_pop} needs no emptiness test. Every
    operation below keeps that padding. *)
module Ready : sig
  type t

  val create : processors:int -> t

  (** Pack a non-negative [clock] and a processor index into a key. *)
  val key : t -> clock:int -> int -> int

  val pidx : t -> int -> int
  val clock : t -> int -> int

  (** Clocks at or above this leave less than a factor of two before a
      key wraps; {!run} raises [Internal] when an epoch starts there. *)
  val clock_limit : t -> int

  val length : t -> int

  (** Empty the queue, refilling the slots it held with [max_int]. *)
  val clear : t -> unit

  val push : t -> int -> unit

  (** Smallest key, or [-1] when empty. *)
  val pop : t -> int

  (** [push_pop t k] is [push t k] followed by [pop t], with the heap
      untouched when [k] is below every key in it and one sift-down
      otherwise. *)
  val push_pop : t -> int -> int
end

(** Native replay of the packed structure-of-arrays trace form.
    [on_epoch] fires with the epoch index as replay enters each epoch —
    the hook {!Trace_io.Mapped.validate_epoch} plugs into for lazy
    validation of memory-mapped traces. Raises a [Corrupt]
    {!Hscd_util.Hscd_error.Error} when an epoch ends with a processor
    waiting for a lock ticket that no task grants. *)
val run :
  ?on_epoch:(int -> unit) ->
  Hscd_arch.Config.t ->
  Hscd_coherence.Scheme.packed ->
  net:Hscd_network.Kruskal_snir.t ->
  traffic:Hscd_network.Traffic.t ->
  Trace.packed ->
  result

(** Reference replay of a boxed trace through the same timing model,
    with a {!Hscd_util.Minheap} ready queue. Only tests call it, to check
    that {!run} on [Trace.pack t] is bit-identical to it. *)
val run_boxed :
  Hscd_arch.Config.t ->
  Hscd_coherence.Scheme.packed ->
  net:Hscd_network.Kruskal_snir.t ->
  traffic:Hscd_network.Traffic.t ->
  Trace.t ->
  result
