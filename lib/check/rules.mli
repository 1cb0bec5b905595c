(** What the coherence compiler may assume about each shared word: the
    one statement of the marking and race-freedom rules. The fuzz
    generator ({!Gen}) draws its marks from it, the shrinker's filters
    ({!Golden.mark_sound}, the race half of {!Golden.lint}) check traces
    against it, and the model checker ({!Mc}) guards its actions with it.

    A trace is walked in rank-major order: {!read} and {!write} record
    each access, {!advance} closes the epoch.

    - [Bypass_read] is always sound: it fetches memory, which
      write-through keeps current.
    - [Normal_read]/[Unmarked] of a written word needs a statically known
      processor (a static schedule, or a serial epoch on processor 0) that
      has obtained a current copy since the last write: by its own write,
      or by a [Time_read], whose hit and refetch paths both leave the
      reader current.
    - [Time_read d] needs [d <= epoch - last_write_epoch]. Any TPI copy
      timetagged at or after the last write is current in a race-free
      trace; companion line fills are tagged one epoch back (the paper's
      "R counter − 1" rule), so they never pass for newer. Under mid-task
      migration the window is one epoch tighter: the writing task may have
      filled the word on its pre-migration processor first, stranding a
      stale copy tagged with the write epoch itself. A same-epoch read
      after the task's own write stays sound, since a task migrates at
      most once and never back.
    - Race freedom, per parallel epoch: a word written outside a critical
      section is private to its writing task, and a word touched inside a
      critical section is touched only inside sections. *)

type t

(** Nothing written, epoch 0. The configuration gives the processors,
    the static schedule, and whether tasks migrate mid-epoch ([Dynamic]
    scheduling with a positive migration rate). *)
val create : Hscd_arch.Config.t -> words:int -> t

val epoch : t -> int

(** Processor of task [rank] of [ntasks], if the compiler can know it. *)
val known_proc : t -> serial:bool -> ntasks:int -> int -> int option

(** Widest sound [Time_read] distance; [None] if never written. *)
val window : t -> int -> int option

(** A [Normal_read]/[Unmarked] from [proc] is sound. *)
val current : t -> proc:int option -> int -> bool

(** Why this read mark is unsound, if it is. *)
val check_read : t -> proc:int option -> int -> Hscd_arch.Event.rmark -> string option

(** Why this access would race with the epoch's earlier ones, if it would. *)
val race : t -> task:int -> write:bool -> in_cs:bool -> int -> string option

(** Written outside a critical section this epoch. *)
val written : t -> int -> bool

val read :
  t -> task:int -> proc:int option -> in_cs:bool -> int -> Hscd_arch.Event.rmark -> unit

val write : t -> task:int -> proc:int option -> in_cs:bool -> int -> unit
val advance : t -> unit

(** Append the state to a dedup key ({!Hscd_coherence.Scheme.Snap}). *)
val snap : Buffer.t -> t -> unit
