(** Sequential reference semantics for event traces: rank-major replay
    recomputing golden read values and final memory, plus a structural
    linter for race-freedom and critical-section discipline. *)

(** Replay the trace in rank-major order, stamping every read with the
    value the golden interpreter observes and rebuilding the golden final
    memory and the count of memory and sync events. Idempotent; correct
    for race-free traces (which [lint] checks). *)
val resolve : Hscd_sim.Trace.t -> Hscd_sim.Trace.t

(** Structural well-formedness problems, empty when the trace is clean:
    balanced non-nested critical sections, bypass-only accesses inside
    them, in-bounds addresses, and per-epoch exclusive ownership of every
    address written outside a critical section. *)
val lint : Hscd_sim.Trace.t -> string list

(** Mark-soundness problems under a machine configuration, empty when
    every read mark is conservative enough to be correct on all schemes:
    [Time_read d] within the distance to the last write (one epoch less
    under mid-task migration), [Normal_read]/[Unmarked] of written data
    only from a statically known processor holding a current copy.
    Together with {!lint} this accepts exactly the traces the generator
    promises; the shrinker uses it to reject candidates whose failure is
    an artifact of event deletion rather than a scheme bug. *)
val mark_sound : Hscd_arch.Config.t -> Hscd_sim.Trace.t -> string list
