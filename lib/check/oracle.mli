(** Differential oracle: one trace through several schemes, requiring zero
    engine violations, golden memory agreement, clean invariant monitors,
    correct boundary counts, and identical cross-scheme final memory. *)

type scheme_report = {
  kind : Hscd_sim.Run.scheme_kind;
  result : Hscd_sim.Engine.result;
  monitor : Monitor.violation list;
  boundaries_ok : bool;
}

type t = {
  reports : scheme_report list;
  memories_agree : bool;
}

val report_ok : scheme_report -> bool
val ok : t -> bool
val failing_schemes : t -> Hscd_sim.Run.scheme_kind list

(** Run the oracle. [fault] injects a bug into the named scheme (for
    validating the oracle itself). Default schemes: the paper's four.
    [jobs] (default 1) runs the schemes on that many domains; results are
    bit-identical to the sequential run. *)
val run :
  ?schemes:Hscd_sim.Run.scheme_kind list ->
  ?fault:Hscd_sim.Run.scheme_kind * Fault.t ->
  ?jobs:int ->
  Hscd_arch.Config.t ->
  Hscd_sim.Trace.packed ->
  t

val describe : t -> string
