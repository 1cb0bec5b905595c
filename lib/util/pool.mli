(** A small domain pool (OCaml 5 [Domain] + [Atomic], no external deps)
    for embarrassingly parallel fan-out: independent simulations of the
    same trace under different coherence schemes, experiment sweeps and
    the fuzz oracle's cross-scheme check.

    Two layers:

    - {!map} / {!map_exn} / {!iter}: the lock-free fast path. Workers
      claim list elements through a shared counter and write results into
      a pre-sized slot array; output order equals input order, so the
      result is bit-identical to the sequential [List.map] — parallelism
      never changes what is computed, only when. {!map} runs {e every}
      task and surfaces each outcome as a [result] (one worker's crash
      never discards completed siblings' work); {!map_exn} is the
      fail-fast shim that re-raises the first failure after the join.

    - {!supervise}: the supervised pool for long, crash-tolerant sweeps.
      Per-task outcome slots (done / failed / timed out), a per-task
      deadline, bounded retry with backoff for transient failures,
      keep-going vs fail-fast policy, worker respawn and graceful
      degradation to in-caller sequential execution when domains cannot
      be spawned or workers keep getting lost. Partial results are always
      returned: a task's failure is data, not an abort. *)

(** Worker count from the environment: [HSCD_JOBS] if set to a positive
    integer, else [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [map ~jobs f xs] runs [f] over every element of [xs] on up to [jobs]
    domains (the caller counts as one) and returns one outcome per
    element, in input order: [Ok y], or [Error e] when that task raised
    (classified by {!Hscd_error.of_exn} with default kind [Worker]).
    Every task runs regardless of sibling failures. [jobs <= 1] (the
    default) runs sequentially with no domain spawned. [f] must not
    touch shared mutable state. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, Hscd_error.t) result list

(** Fail-fast shim over {!map}: returns the plain values, re-raising the
    first failing task's original exception (with its backtrace) after
    all workers have joined. *)
val map_exn : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [iter ~jobs f xs] is [ignore (map_exn ~jobs f xs)]. *)
val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit

(** {1 Supervised execution} *)

(** Final per-task verdict. [Timed_out] carries the seconds the last
    attempt had been running when it was given up on. *)
type 'b outcome = Done of 'b | Failed of Hscd_error.t | Timed_out of float

(** Retry / timeout / failure policy for one {!supervise} run. *)
type policy = {
  deadline : float option;
      (** seconds per task attempt; [None] = no timeout. Enforced only
          when running on spawned domains — the sequential fallback
          cannot interrupt a task. *)
  retries : int;  (** extra attempts after the first, per task *)
  backoff : float;
      (** seconds before re-queueing attempt [k] (scaled linearly by [k]) *)
  keep_going : bool;
      (** [true]: a task's final failure never stops siblings.
          [false]: after the first final failure, unstarted tasks are
          resolved as [Failed] (message ["cancelled"]); running tasks
          finish. *)
  max_respawns : int;
      (** replacement workers spawned for lost (hung) ones before the
          supervisor degrades to sequential in-caller execution *)
}

(** [deadline = None], [retries = 2], [backoff = 0.05],
    [keep_going = true], [max_respawns = 4]. *)
val default_policy : policy

(** What the supervisor had to do (for observability and tests). *)
type stats = {
  retried : int;  (** attempts re-queued after a crash or timeout *)
  timeouts : int;  (** attempts that blew their deadline *)
  respawns : int;  (** replacement workers spawned *)
  degraded : bool;  (** finished sequentially in the caller *)
}

(** [supervise ~jobs ~policy ~on_done f xs] runs every task under the
    supervision policy and returns one final {!outcome} per input, in
    input order, plus {!stats}. [on_done i outcome] fires in the
    supervising (calling) domain as each task resolves — in completion
    order, not input order — which is the checkpoint-journal hook: a
    crash after [on_done] loses nothing for that task. Timed-out and
    crashed attempts are retried up to [policy.retries] times; a retry
    that succeeds yields a normal [Done] (bit-identical to a fault-free
    run when [f] is pure). [jobs <= 1] executes sequentially in the
    caller (retries honoured, deadlines not). *)
val supervise :
  ?jobs:int ->
  ?policy:policy ->
  ?on_done:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list * stats

(** Test hook: make the next [n] [Domain.spawn] attempts inside the pool
    fail, to exercise degradation paths. *)
module For_testing : sig
  val fail_next_spawns : int Atomic.t
end
