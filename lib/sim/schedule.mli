(** DOALL iteration scheduling: task-rank to processor mapping.

    Block and cyclic are static (the compiler may rely on them for
    owner-alignment); dynamic self-scheduling is resolved inside the
    engine. *)

(** Processor executing task [rank] of an epoch with [ntasks] tasks; raises
    [Invalid_argument] under dynamic scheduling. *)
val static_proc : Hscd_arch.Config.t -> ntasks:int -> int -> int

val is_static : Hscd_arch.Config.t -> bool
