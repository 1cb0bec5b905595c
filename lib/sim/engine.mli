(** The multiprocessor timing engine: replays a packed trace against one
    coherence scheme in global clock order, with barriers, ticket-ordered
    critical sections, static/dynamic scheduling, mid-task migration, and
    per-load verification against the golden interpreter. The hot path is
    allocation-free in steady state. *)

type violation = { epoch : int; proc : int; addr : int; expected : int; got : int }

type result = {
  cycles : int;
  metrics : Metrics.t;
  violations : violation list;  (** capped at {!max_violations} *)
  memory_ok : bool;  (** final scheme memory equals the golden memory *)
  network_load : float;  (** last estimated utilization *)
}

val max_violations : int

(** Native replay of the packed structure-of-arrays trace form.
    [on_epoch] fires with the epoch index as replay enters each epoch —
    the hook {!Trace_io.Mapped.validate_epoch} plugs into for lazy
    validation of memory-mapped traces. *)
val run :
  ?on_epoch:(int -> unit) ->
  Hscd_arch.Config.t ->
  Hscd_coherence.Scheme.packed ->
  net:Hscd_network.Kruskal_snir.t ->
  traffic:Hscd_network.Traffic.t ->
  Trace.packed ->
  result

(** Legacy replay of the boxed event stream through the same timing
    model; bit-identical to {!run} on the packed form of the same trace
    (asserted by the test suite). *)
val run_boxed :
  Hscd_arch.Config.t ->
  Hscd_coherence.Scheme.packed ->
  net:Hscd_network.Kruskal_snir.t ->
  traffic:Hscd_network.Traffic.t ->
  Trace.t ->
  result
