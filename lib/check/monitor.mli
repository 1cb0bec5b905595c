(** Per-step invariant monitors layered over any coherence scheme: value
    provenance (no load returns a never-written value), Time-Read window
    enforcement, bypass freshness, and epoch-boundary sanity. *)

type violation = { epoch : int; proc : int; addr : int; kind : string; detail : string }

val violation_to_string : violation -> string

type t

val max_violations : int

val create : processors:int -> words:int -> t

(** Violations in detection order (capped at {!max_violations}). *)
val report : t -> violation list

(** Number of epoch boundaries observed — the oracle checks it equals the
    trace's epoch count (monotone lockstep epoch counters). *)
val boundaries : t -> int

(** {2 Direct per-step entry points}

    The engine path uses {!wrap}; the bounded model checker ({!Mc}) and
    the monitor's own unit tests drive the shadow model one step at a
    time instead. [on_read] must see the value the scheme returned,
    [on_write] must run before the shadow history is consulted again,
    and [on_boundary] must see the scheme's per-processor stall array. *)

val on_read :
  t -> proc:int -> addr:int -> mark:Hscd_arch.Event.rmark -> int -> unit

val on_write : t -> addr:int -> int -> unit

(** The writes [on_write] has recorded to a word, as (epoch, value)
    pairs, newest first. *)
val history : t -> int -> (int * int) list

val on_boundary : t -> int array -> unit

(** Decorate a packed scheme instance so every access and boundary is
    checked against the monitor's shadow model. *)
val wrap : t -> Hscd_coherence.Scheme.packed -> Hscd_coherence.Scheme.packed
