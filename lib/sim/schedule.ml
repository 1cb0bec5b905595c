(** DOALL iteration scheduling: maps task ranks to processors.

    Block and cyclic scheduling are static — the compiler may rely on them
    for owner-alignment (the marking pass's [static_sched] flag must match
    the engine's policy). Dynamic self-scheduling is resolved inside the
    engine (next free processor takes the next task). *)

module Config = Hscd_arch.Config

(** Processor executing task [rank] of an epoch with [ntasks] tasks. Only
    valid for static policies. *)
let static_proc (c : Config.t) ~ntasks rank =
  match c.scheduling with
  | Config.Block ->
    let chunk = Hscd_util.Ints.ceil_div ntasks c.processors in
    min (c.processors - 1) (rank / chunk)
  | Config.Cyclic -> rank mod c.processors
  | Config.Dynamic -> invalid_arg "Schedule.static_proc: dynamic scheduling"

let is_static (c : Config.t) =
  match c.scheduling with Config.Block | Config.Cyclic -> true | Config.Dynamic -> false
