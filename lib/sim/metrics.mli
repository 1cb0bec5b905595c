(** Per-run performance counters aggregated by the engine. *)

module Scheme = Hscd_coherence.Scheme
module Traffic = Hscd_network.Traffic

val n_classes : int
val class_index : Scheme.miss_class -> int

type t = {
  read_classes : int array;  (** indexed by {!class_index} *)
  write_classes : int array;
  mutable read_miss_count : int;
  mutable read_miss_cycles : int;
  mutable compute_cycles : int;
  mutable barriers : int;
  mutable lock_acquires : int;
  mutable lock_wait_cycles : int;
  mutable migrations : int;
  mutable cycles : int;  (** total execution time *)
  mutable violations : int;  (** loads observing a non-golden value *)
  mutable traffic : Traffic.snapshot;
  mutable scheme_stats : Scheme.stats;
}

val create : unit -> t

val reads : t -> int
val writes : t -> int
val accesses : t -> int
val read_hits : t -> int
val read_misses : t -> int

(** Misses over all shared-data references, uncached accesses counted as
    misses — the Figure 11 metric. *)
val miss_rate : t -> float

val class_count : t -> Scheme.miss_class -> int
val avg_read_miss_latency : t -> float
