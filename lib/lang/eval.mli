(** Reference interpreter for PFL: the sequential golden memory model and,
    through the hooks, the execution-driven trace generator. Each run
    compiles the program to closures against its address map, then
    executes them.

    Execution alternates [Serial] and [Parallel] epochs; DOALL iterations
    must be independent outside critical sections ([check_races] verifies
    this). Scalars are task-private; arrays live in a flat word-addressed
    store. *)

exception Runtime_error of string

exception Data_race of string

type value = int

type epoch_kind = Serial | Parallel of { lo : int; hi : int }

type hooks = {
  on_init : Shape.layout -> unit;
      (** called once, before the first epoch, with the address map the run
          uses — trace builders name array ids from it *)
  on_epoch_begin : epoch_kind -> unit;
  on_epoch_end : unit -> unit;
  on_task_begin : iter:int -> unit;
      (** [iter] is the iteration's index value; [0] for a serial task *)
  on_task_end : unit -> unit;
  on_read : array:int -> addr:int -> value:value -> mark:Ast.rmark -> unit;
      (** [array] is the array's layout-order id: its index in
          {!Shape.arrays_in_order} *)
  on_write : array:int -> addr:int -> value:value -> mark:Ast.wmark -> unit;
  on_work : int -> unit;
  on_lock : unit -> unit;
  on_unlock : unit -> unit;
}

val null_hooks : hooks

(** Deterministic value of a [blackbox] call (stable across runs and
    platforms). Non-negative. *)
val blackbox_value : string -> int list -> int

type result = {
  final_memory : value array;
  layout : Shape.layout;
  epochs : int;  (** number of epochs executed (counting the serial ones) *)
}

(** Execute a sema-checked program. [line_words] controls array padding in
    the address map and must match the simulated machine. [max_steps]
    bounds statement executions (raises {!Runtime_error} beyond it). *)
val run :
  ?hooks:hooks ->
  ?check_races:bool ->
  ?max_steps:int ->
  ?line_words:int ->
  Ast.program ->
  result

(** Read an element of the final memory, for tests and examples. *)
val peek : result -> string -> int list -> value
