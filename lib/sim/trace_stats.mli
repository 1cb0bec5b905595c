(** Workload characterization: static/dynamic properties of a trace. *)

type t = {
  epochs : int;
  parallel_epochs : int;
  tasks : int;
  reads : int;
  writes : int;
  compute_cycles : int;
  lock_events : int;
  footprint_words : int;  (** distinct words touched *)
  shared_words : int;  (** words touched by more than one processor *)
  avg_parallelism : float;  (** mean tasks per parallel epoch *)
  marked_reads : int;  (** reads carrying a Time-Read/Bypass mark *)
}

val of_trace : Hscd_arch.Config.t -> Trace.packed -> t

(** Fraction of reads the compiler could not prove safe. *)
val marked_read_fraction : t -> float

(** Fraction of the footprint actively shared between processors. *)
val sharing_fraction : t -> float
