(** A small domain pool (OCaml 5 [Domain], no external deps) and the one
    executor behind every fan-out in the repository: the scheme cells of
    a compare, the bench × scheme grid of an experiment sweep, the fuzz
    oracle's cross-scheme check and the model checker's frontier.

    {!supervise} runs each task under a policy: per-task outcome slots
    (done / failed / timed out), an optional per-task deadline, bounded
    retry with backoff for transient failures, keep-going vs fail-fast,
    worker respawn, and graceful degradation to in-caller sequential
    execution when domains cannot be spawned or workers keep getting
    lost. Partial results are always returned: a task's failure is data,
    not an abort. Output order equals input order, so with a pure task
    function the result is bit-identical to the sequential [List.map] —
    parallelism never changes what is computed, only when.

    The calling domain runs in one of two modes, chosen by
    [policy.deadline]:

    - no deadline (the default): the caller works the task queue beside
      [jobs - 1] spawned workers, and blocks on a condition variable
      when every remaining task is running elsewhere;
    - a deadline: the caller only supervises, beside [jobs] workers, so
      that it stays free to notice an attempt that hangs. *)

(** Worker count from the environment: [HSCD_JOBS] if set to a positive
    integer, else [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Final per-task verdict. [Timed_out] carries the seconds the last
    attempt had been running when it was given up on. *)
type 'b outcome = Done of 'b | Failed of Hscd_error.t | Timed_out of float

(** Retry / timeout / failure policy for one {!supervise} run. *)
type policy = {
  deadline : float option;
      (** seconds per task attempt; [None] = no timeout. Enforced only
          when running on spawned domains — the sequential fallback
          cannot interrupt a task. Also picks the caller's mode (see the
          module header). *)
  retries : int;  (** extra attempts after the first, per task *)
  backoff : float;
      (** seconds before re-queueing attempt [k] (scaled linearly by [k]) *)
  keep_going : bool;
      (** [true]: a task's final failure never stops siblings.
          [false]: after the first final failure, unstarted tasks are
          resolved as [Failed] (message ["cancelled"]); running tasks
          finish. *)
}

(** [deadline = None], [retries = 2], [backoff = 0.05],
    [keep_going = true]. The supervisor spawns at most 4 replacement
    workers for lost (hung) ones before it degrades to sequential
    in-caller execution. *)
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
    crash after [on_done] loses nothing for that task. Without a
    deadline, a completion that arrives while the caller is running a
    task of its own is resolved when that task ends. Timed-out and
    crashed attempts are retried up to [policy.retries] times; a retry
    that succeeds yields a normal [Done] (bit-identical to a fault-free
    run when [f] is pure). [jobs <= 1] executes sequentially in the
    caller (retries honoured, deadlines not), as does a single task
    without a deadline. *)
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
