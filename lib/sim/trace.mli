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

(** Packed structure-of-arrays form — the engine's native input. Each
    task's event stream lives in parallel unboxed slabs
    (opcode, address, value, mark code, interned array id), built once at
    trace-compile time; the replay hot path decodes events by index
    without constructing a single variant. *)

(** Unboxed int slabs backing the packed form: [Bigarray.Array1] of OCaml
    ints, so a slab is either heap-allocated or a zero-copy view into an
    [Unix.map_file]d binary trace ({!Trace_io.map_packed}) — the engine
    replays both through the same accessors. *)
module Slab : sig
  type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  (** Fresh zero-filled slab. *)
  val create : int -> t

  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit

  (** Zero-copy sub-view sharing the underlying storage. *)
  val sub : t -> int -> int -> t

  (** Copy the first [len] elements of an [int array] into a fresh slab. *)
  val of_int_array_sub : int array -> int -> t

  val of_int_array : int array -> t
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
  ops : Slab.t;  (** {!Hscd_arch.Event.Code} opcode per slot *)
  addrs : Slab.t;  (** address (or cycle count for compute slots) *)
  values : Slab.t;  (** golden value per read/write slot *)
  marks : Slab.t;  (** rmark/wmark code, interpreted per opcode *)
  arrs : Slab.t;  (** interned array id per read/write slot *)
  p_epochs : pepoch array;
  symtab : Hscd_util.Symtab.t;  (** array-name interning, layout base order *)
  rmark_table : Hscd_arch.Event.rmark array;  (** decode table by mark code *)
  p_layout : Hscd_lang.Shape.layout;
  p_golden : int array;
  p_total_events : int;  (** memory + sync events, as in {!t.total_events} *)
  n_slots : int;  (** total slots incl. compute *)
  p_max_tickets : int;  (** max tickets over all epochs *)
}

(** Symtab seeded with the layout's arrays in base order — the canonical
    id assignment shared by the packed and boxed replay paths. *)
val symtab_of_layout : Hscd_lang.Shape.layout -> Hscd_util.Symtab.t

(** Compile a boxed trace into the packed form, the only direction a
    boxed trace ever flows. Production code packs the traces that only
    exist boxed: text traces from {!Trace_io.load}, fuzz-generated traces
    and model-checker traces. Tests also use [pack (of_program p)] as the
    independent reference the streaming {!Builder} is checked against. *)
val pack : t -> packed

(** Streaming trace builder that {!Hscd_lang.Eval} hooks append into
    directly. Slots go into fixed-size chunks of five Bigarray slabs (the
    layout of {!packed}). The per-event path neither allocates nor hashes: array ids come from the
    interpreter, marks convert from AST codes without an intermediate
    variant, and compute work coalesces into a pending counter exactly as
    {!of_program} does. *)
module Builder : sig
  type t

  val create : unit -> t

  (** Eval hooks that stream events straight into the chunks. *)
  val hooks : t -> Hscd_lang.Eval.hooks

  (** Close the builder into a packed trace with exact-size slabs. The
      builder cannot be used after. *)
  val finish : t -> golden:int array -> packed
end

(** Generate the packed trace directly — instrumented interpreter with
    {!Builder} hooks, no boxed [t] ever materialized. Replay results are
    bit-identical to [pack (of_program p)]. *)
val of_program_packed :
  ?check_races:bool -> ?line_words:int -> Hscd_lang.Ast.program -> packed

(** At least 1, for allocating scheme memory images. *)
val packed_memory_words : packed -> int

(** Approximate live heap words of the packed slabs (counts capacity,
    including builder growth headroom), for footprint reporting. *)
val packed_slab_words : packed -> int

val packed_n_epochs : packed -> int
val packed_n_parallel_epochs : packed -> int

(** (reads, writes) over the live slots. *)
val packed_access_counts : packed -> int * int

val n_epochs : t -> int

(** At least 1, for allocating scheme memory images. *)
val memory_words : t -> int

