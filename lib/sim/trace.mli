(** Execution-driven trace generation: runs a (marked) program under the
    instrumented interpreter and collects per-epoch, per-task memory-event
    streams plus the golden final memory. *)

type epoch_kind = Serial | Parallel of { lo : int; hi : int }

type task = { iter : int; events : Hscd_arch.Event.t array }

type epoch = { kind : epoch_kind; tasks : task array }

type t = {
  epochs : epoch array;
  layout : Hscd_lang.Shape.layout;
  golden_memory : int array;
  total_events : int;
}

(** Generate the boxed trace of a sema-checked (and normally
    compiler-marked) program. [line_words] must match the simulated
    machine's line size. Only tests call it: it is the independent
    reference generator that {!of_program_packed} is checked against. *)
val of_program : ?check_races:bool -> ?line_words:int -> Hscd_lang.Ast.program -> t

(** Packed form — the engine's native input. Every task's events are
    slots of one unboxed slab, two words per slot, built once at
    trace-compile time; the replay hot path decodes events by index
    without constructing a single variant. *)

(** Unboxed int slabs backing the packed form: [Bigarray.Array1] of OCaml
    ints, so slab data lives outside the OCaml heap — the major GC never
    scans it and a trace's slots cost no heap words. *)
module Slab : sig
  type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  val length : t -> int
  val get : t -> int -> int
end

type ptask = {
  p_iter : int;
  off : int;  (** first slot of this task's events in the slabs *)
  len : int;  (** number of slots *)
  ticket0 : int;  (** first critical-section ticket of the task *)
  n_locks : int;  (** tickets [ticket0 .. ticket0 + n_locks - 1] *)
}

type pepoch = { p_kind : epoch_kind; p_tasks : ptask array; p_n_tickets : int }

type packed = {
  slots : Slab.t;
      (** [2 * n_slots] words (2 when {!pack} has no slot to hold):
          slot [i] is words [2i] and [2i+1], laid out as below *)
  p_epochs : pepoch array;
  symtab : Hscd_util.Symtab.t;  (** array-name interning, layout base order *)
  rmark_table : Hscd_arch.Event.rmark array;  (** decode table by mark code *)
  p_layout : Hscd_lang.Shape.layout;
  p_golden : int array;
  p_total_events : int;  (** memory + sync events, as in {!t.total_events} *)
  n_slots : int;  (** total slots incl. compute *)
  p_max_tickets : int;  (** max tickets over all epochs *)
}

(** {2 Slot layout}

    Word [2i] of a read or write holds the {!Hscd_arch.Event.Code} opcode
    in bits 0–2, the mark code in bits 3–18, the interned array id in
    bits 19–31 and the address as a signed field from bit 32 (decode with
    [asr 32]). For compute, lock and unlock, word [2i] is the opcode
    alone. Word [2i+1] is the golden value of a read or write, the cycle
    count of a compute slot, and 0 for lock and unlock.

    The fields bound what a packed trace can hold; compute counts and
    values are unbounded. Generation ({!of_program_packed}, so
    [Run.compile]) and {!pack} raise {!Hscd_util.Hscd_error.Error} of kind
    [Usage] for a trace past a limit, and the text loader [Parse] naming
    the line. *)

(** 65,532: the largest Time-Read distance (mark code
    [Event.Code.rmark_base + d] below 2{^16}). *)
val max_time_read : int

(** 8,191: a trace names fewer than 8,192 arrays (ids below 2{^13}). *)
val max_arrays : int

(** 2{^30} - 1: a trace's memory has fewer than 2{^30} words, so every
    address fits the signed field. *)
val max_memory_words : int

(** {2 Logical fields of slot [i]}

    The five fields of a slot as the engine and the text format see
    them: [addr] is the cycle count of a compute slot, and a field a slot
    does not use reads 0. *)

val op : packed -> int -> int
val addr : packed -> int -> int
val value : packed -> int -> int
val mark : packed -> int -> int
val arr : packed -> int -> int

(** Symtab seeded with the layout's arrays in base order — the canonical
    id assignment shared by {!pack}, {!Builder} and the text loader. *)
val symtab_of_layout : Hscd_lang.Shape.layout -> Hscd_util.Symtab.t

(** Compile a boxed trace into the packed form, the only direction a
    boxed trace ever flows. Production code packs the traces that only
    exist boxed: fuzz-generated traces and model-checker traces. Tests
    also use [pack (of_program p)] as the
    independent reference the streaming {!Builder} is checked against.
    Raises a [Usage] error for a trace past a slot-field limit, including
    an address outside the signed field or a negative Time-Read
    distance. *)
val pack : t -> packed

(** Streaming trace builder, the one slot encoder: {!Hscd_lang.Eval}
    hooks append into it during generation, and {!Trace_io.load} calls
    its functions line by line. Slots go into fixed-size Bigarray chunks
    of 16,384 slots, two words each in the layout of {!packed}. The
    per-event path neither allocates nor hashes: array ids come from the
    interpreter, marks convert from AST codes without an intermediate
    variant, and the hooks' compute work coalesces into a pending counter
    exactly as {!of_program} does, where {!compute} is one slot. Call
    {!init} once, then per epoch {!epoch_begin} ([tasks] sizes its task
    array, which grows), per task {!task_begin}, its slots and
    {!task_end}, then {!epoch_end}. Like the interpreter, a caller keeps
    addresses inside the layout and passes array ids as
    {!symtab_of_layout} assigns them and {!Hscd_arch.Event.Code} mark
    codes. {!init} raises a [Usage] error for a layout past {!max_arrays}
    or {!max_memory_words}, and {!read} for a code past
    {!max_time_read}. *)
module Builder : sig
  type t

  val create : unit -> t

  (** Eval hooks that stream events straight into the chunks. *)
  val hooks : t -> Hscd_lang.Eval.hooks

  val init : t -> Hscd_lang.Shape.layout -> unit
  val epoch_begin : t -> epoch_kind -> tasks:int -> unit
  val epoch_end : t -> unit
  val task_begin : t -> iter:int -> unit
  val task_end : t -> unit
  val compute : t -> int -> unit
  val read : t -> array:int -> addr:int -> value:int -> rcode:int -> unit
  val write : t -> array:int -> addr:int -> value:int -> wcode:int -> unit
  val lock : t -> unit
  val unlock : t -> unit

  (** Close the builder into a packed trace with an exact-size slab. The
      builder cannot be used after. *)
  val finish : t -> golden:int array -> packed
end

(** Generate the packed trace directly — instrumented interpreter with
    {!Builder} hooks, no boxed [t] ever materialized. Replay results are
    bit-identical to [pack (of_program p)]. The layout limits are checked
    before the interpreter allocates the program's memory. *)
val of_program_packed :
  ?check_races:bool -> ?line_words:int -> Hscd_lang.Ast.program -> packed

(** At least 1, for allocating scheme memory images. *)
val packed_memory_words : packed -> int

val packed_n_epochs : packed -> int
val packed_n_parallel_epochs : packed -> int

(** (reads, writes) over the live slots. *)
val packed_access_counts : packed -> int * int

