(** Per-run performance counters aggregated by the engine. *)

module Scheme = Hscd_coherence.Scheme
module Traffic = Hscd_network.Traffic

let n_classes = 8

let class_index : Scheme.miss_class -> int = function
  | Scheme.Hit -> 0
  | Scheme.Cold -> 1
  | Scheme.Replacement -> 2
  | Scheme.True_sharing -> 3
  | Scheme.False_sharing -> 4
  | Scheme.Conservative -> 5
  | Scheme.Reset_inv -> 6
  | Scheme.Uncached -> 7

type t = {
  read_classes : int array;
  write_classes : int array;
  (* int counters, not a float accumulator: the engine bumps these per
     miss and boxed-float record fields would allocate on every update *)
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

let create () =
  {
    read_classes = Array.make n_classes 0;
    write_classes = Array.make n_classes 0;
    read_miss_count = 0;
    read_miss_cycles = 0;
    compute_cycles = 0;
    barriers = 0;
    lock_acquires = 0;
    lock_wait_cycles = 0;
    migrations = 0;
    cycles = 0;
    violations = 0;
    traffic = { Traffic.reads = 0; writes = 0; coherence = 0; control = 0 };
    scheme_stats = Scheme.fresh_stats ();
  }

let reads t = Array.fold_left ( + ) 0 t.read_classes
let writes t = Array.fold_left ( + ) 0 t.write_classes
let accesses t = reads t + writes t

let read_hits t = t.read_classes.(0)
let read_misses t = reads t - read_hits t

(** Misses over all shared-data references (reads + writes), uncached
    accesses counted as misses — the Figure 11 metric. *)
let miss_rate t =
  let total = accesses t in
  let hits = t.read_classes.(0) + t.write_classes.(0) in
  Hscd_util.Stats.ratio (total - hits) total

let class_count t cls = t.read_classes.(class_index cls) + t.write_classes.(class_index cls)

let avg_read_miss_latency t = Hscd_util.Stats.ratio t.read_miss_cycles t.read_miss_count
