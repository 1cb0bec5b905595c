(** Bounded exhaustive model checking of the coherence schemes.

    Drives each {!Hscd_coherence.Scheme.S} implementation directly as a
    guarded-action transition system over a small scope (2–3 processors,
    1–2 words, full timetag-wrap window) and explores every reachable
    state under a depth bound, hash-dedup'd on {!Scheme.S.snapshot} plus
    the checker's guard state. Actions are guarded by {!Rules}, as the
    fuzz generator's marks are drawn from it, so every explored path is
    a race-free trace with sound marks on which every scheme must return
    golden values. Violations ({!Monitor} invariants,
    scheme/BASE disagreement, memory-image drift at epoch boundaries)
    come back as an action sequence that {!replay} converts into a
    packed trace and runs through the timing engine. *)

(** {1 Scope} *)

type scope = {
  procs : int;  (** processors = tasks per parallel epoch *)
  words : int;  (** shared data words (addresses [0 .. words-1]) *)
  line_words : int;  (** >1 puts several words in one line (companion fills) *)
  timetag_bits : int;  (** 2 gives the tightest wrap: reset every 2 epochs *)
  depth : int;  (** bound on actions per explored path *)
  migration : bool;  (** dynamic scheduling with mid-task migration rules *)
  max_states : int;  (** safety valve; exceeding it truncates the search *)
}

(** 2 procs × 1 word, 2-bit timetags, depth 10 — covers a full
    timetag-wrap cycle with accesses to spare. *)
val default_scope : scope

(** The machine configuration a scope explores under (also used by
    {!replay}). *)
val cfg_of : scope -> Hscd_arch.Config.t

(** {1 Actions} *)

type action =
  | Read of { task : int; word : int; mark : Hscd_arch.Event.rmark }
  | Write of { task : int; word : int }
  | Migrate of { task : int }  (** migration mode only *)
  | Advance  (** epoch boundary *)

val action_to_string : action -> string
val actions_to_string : action list -> string

(** Deterministic value of the [n]-th (1-based) write to [word]. *)
val write_value : word:int -> n:int -> int

(** {1 Search} *)

type stats = {
  states : int;  (** distinct reachable states (initial included) *)
  transitions : int;  (** explored edges *)
  depth_reached : int;  (** levels fully expanded *)
  truncated : bool;  (** hit [max_states] before the depth bound *)
  elapsed : float;  (** wall seconds *)
}

type counterexample = {
  cx_kind : Hscd_sim.Run.scheme_kind;
  actions : action list;
  violation : string;
}

type report = {
  kind : Hscd_sim.Run.scheme_kind;
  fault : Fault.t option;
  scope : scope;
  stats : stats;
  counterexample : counterexample option;
}

(** Exhaustive bounded BFS of one scheme (frontier expansion fans out
    over the supervised pool; results are bit-deterministic for any
    [jobs]). [fault] grafts a {!Fault} onto the subject scheme. Stops at
    the first (shortest) counterexample. *)
val explore :
  ?fault:Fault.t ->
  ?jobs:int ->
  scope ->
  Hscd_sim.Run.scheme_kind ->
  report

(** Exhaustive, violation-free, not truncated. *)
val ok : report -> bool

(** {!explore} for every scheme in [schemes] (default: all seven). *)
val check_all :
  ?fault:Fault.t ->
  ?jobs:int ->
  ?schemes:Hscd_sim.Run.scheme_kind list ->
  scope ->
  report list

(** {1 Counterexample replay} *)

(** Action sequence → boxed trace (epochs split at [Advance], one task
    per processor, golden values stamped by {!Golden.resolve}). The
    trace is race-free with sound marks, so it is also a valid corpus
    regression. *)
val trace_of_actions : scope -> action list -> Hscd_sim.Trace.t

(** Replay a counterexample through the timing engine under the scope's
    configuration (same fault injected, if any), checked by the full
    differential oracle. *)
val replay :
  ?fault:Fault.t ->
  ?jobs:int ->
  scope ->
  counterexample ->
  Hscd_sim.Trace.t * Oracle.t

(** {1 Reporting} *)

val describe_scope : scope -> string

(** One line: scheme, state/transition counts, time, verdict. *)
val describe : report -> string
