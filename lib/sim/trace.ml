(** Execution-driven trace generation.

    Runs the (marked) program under the instrumented interpreter and
    collects, per epoch and per task, the stream of memory events the
    timing engine will replay — the role of the instrumentation tools of
    [32] in the paper's methodology. The trace also keeps the golden final
    memory for end-of-run verification. *)

module Ast = Hscd_lang.Ast
module Eval = Hscd_lang.Eval
module Shape = Hscd_lang.Shape
module Event = Hscd_arch.Event

type epoch_kind = Serial | Parallel of { lo : int; hi : int }

type task = { iter : int; events : Event.t array }

type epoch = { kind : epoch_kind; tasks : task array }

type t = {
  epochs : epoch array;
  layout : Shape.layout;
  golden_memory : int array;
  total_events : int;
}

(* Work events are coalesced with an implicit 1-cycle cost per memory
   event's address computation; explicit [work] statements add more. *)

let of_program ?(check_races = true) ?(line_words = 4) (program : Ast.program) =
  let epochs = ref [] in
  let cur_tasks = ref [] in
  let cur_kind = ref Serial in
  let cur_events = ref [] in
  let cur_iter = ref 0 in
  let pending_work = ref 0 in
  let total = ref 0 in
  let flush_work () =
    if !pending_work > 0 then begin
      cur_events := Event.Compute !pending_work :: !cur_events;
      pending_work := 0
    end
  in
  let emit e =
    flush_work ();
    incr total;
    cur_events := e :: !cur_events
  in
  let names = ref [||] in
  let hooks =
    {
      Eval.on_init =
        (fun layout ->
          names := Array.of_list (List.map (fun (a : Shape.t) -> a.name) (Shape.arrays_in_order layout)));
      on_epoch_begin =
        (fun kind ->
          cur_kind :=
            (match kind with
            | Eval.Serial -> Serial
            | Eval.Parallel { lo; hi } -> Parallel { lo; hi });
          cur_tasks := []);
      on_epoch_end =
        (fun () ->
          let tasks = Array.of_list (List.rev !cur_tasks) in
          epochs := { kind = !cur_kind; tasks } :: !epochs);
      on_task_begin =
        (fun ~iter ->
          cur_iter := iter;
          cur_events := [];
          pending_work := 0);
      on_task_end =
        (fun () ->
          flush_work ();
          cur_tasks :=
            { iter = !cur_iter; events = Array.of_list (List.rev !cur_events) } :: !cur_tasks);
      on_read =
        (fun ~array ~addr ~value ~mark ->
          emit (Event.Read { addr; mark = Event.of_ast_rmark mark; value; array = !names.(array) }));
      on_write =
        (fun ~array ~addr ~value ~mark ->
          emit (Event.Write { addr; mark = Event.of_ast_wmark mark; value; array = !names.(array) }));
      on_work = (fun n -> pending_work := !pending_work + n);
      on_lock = (fun () -> emit Event.Lock);
      on_unlock = (fun () -> emit Event.Unlock);
    }
  in
  let result = Eval.run ~hooks ~check_races ~line_words program in
  {
    epochs = Array.of_list (List.rev !epochs);
    layout = result.Eval.layout;
    golden_memory = result.Eval.final_memory;
    total_events = !total;
  }

(* ------------------------------------------------------------------ *)
(* Packed structure-of-arrays form                                     *)
(* ------------------------------------------------------------------ *)

(** Unboxed int slabs backing the packed form. [Bigarray] rather than
    [int array] so a slab can either live on the OCaml heap or be a
    zero-copy view into an [Unix.map_file]d trace file — the engine
    replays both through the same accessors. Elements are OCaml ints
    (63-bit); on disk they are the same 8-byte little-endian words the
    binary trace format writes, so mapping is a reinterpretation, not a
    decode. *)
module Slab = struct
  type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create n : t =
    let s = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill s 0;
    s

  let length : t -> int = Bigarray.Array1.dim
  let get : t -> int -> int = Bigarray.Array1.get
  let set : t -> int -> int -> unit = Bigarray.Array1.set

  (** Zero-copy sub-view sharing the underlying storage. *)
  let sub : t -> int -> int -> t = Bigarray.Array1.sub

  (** Copy the first [len] elements of [a] into a fresh slab. *)
  let of_int_array_sub (a : int array) len =
    let s = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set s i (Array.unsafe_get a i)
    done;
    s

  let of_int_array a = of_int_array_sub a (Array.length a)
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
  symtab : Hscd_util.Symtab.t;  (** array-name interning, {!Shape.layout} base order *)
  rmark_table : Event.rmark array;  (** decode table indexed by mark code *)
  p_layout : Shape.layout;
  p_golden : int array;
  p_total_events : int;  (** memory + sync events, as in {!t.total_events} *)
  n_slots : int;  (** total slots incl. compute *)
  p_max_tickets : int;  (** max tickets over all epochs (waiter-slot bound) *)
}

(** Seed a symtab with the trace's arrays in [Shape.layout] base order —
    the canonical id assignment both replay paths share. *)
let symtab_of_layout (layout : Shape.layout) =
  Hscd_util.Symtab.of_names (List.map (fun (a : Shape.t) -> a.Shape.name) (Shape.arrays_in_order layout))

(** Compile the boxed trace into the packed form: one pass to size the
    slabs, one to fill them. Tickets are assigned in (rank, event) order
    within each epoch — the order the engine grants critical sections. *)
let pack (t : t) =
  let symtab = symtab_of_layout t.layout in
  let n_slots =
    Array.fold_left
      (fun acc e ->
        Array.fold_left (fun acc (task : task) -> acc + Array.length task.events) acc e.tasks)
      0 t.epochs
  in
  let cap = max 1 n_slots in
  let ops = Array.make cap 0 in
  let addrs = Array.make cap 0 in
  let values = Array.make cap 0 in
  let marks = Array.make cap 0 in
  let arrs = Array.make cap 0 in
  let pos = ref 0 in
  let max_rcode = ref 0 in
  let max_tickets = ref 0 in
  let p_epochs =
    Array.map
      (fun (e : epoch) ->
        let ticket = ref 0 in
        let p_tasks =
          Array.map
            (fun (task : task) ->
              let off = !pos in
              let ticket0 = !ticket in
              Array.iter
                (fun ev ->
                  let i = !pos in
                  incr pos;
                  match ev with
                  | Event.Compute n ->
                    ops.(i) <- Event.Code.compute;
                    addrs.(i) <- n
                  | Event.Read { addr; mark; value; array } ->
                    ops.(i) <- Event.Code.read;
                    addrs.(i) <- addr;
                    values.(i) <- value;
                    let c = Event.Code.of_rmark mark in
                    if c > !max_rcode then max_rcode := c;
                    marks.(i) <- c;
                    arrs.(i) <- Hscd_util.Symtab.intern symtab array
                  | Event.Write { addr; mark; value; array } ->
                    ops.(i) <- Event.Code.write;
                    addrs.(i) <- addr;
                    values.(i) <- value;
                    marks.(i) <- Event.Code.of_wmark mark;
                    arrs.(i) <- Hscd_util.Symtab.intern symtab array
                  | Event.Lock ->
                    ops.(i) <- Event.Code.lock;
                    incr ticket
                  | Event.Unlock -> ops.(i) <- Event.Code.unlock)
                task.events;
              { p_iter = task.iter; off; len = Array.length task.events; ticket0;
                n_locks = !ticket - ticket0 })
            e.tasks
        in
        if !ticket > !max_tickets then max_tickets := !ticket;
        { p_kind = e.kind; p_tasks; p_n_tickets = !ticket })
      t.epochs
  in
  {
    ops = Slab.of_int_array ops;
    addrs = Slab.of_int_array addrs;
    values = Slab.of_int_array values;
    marks = Slab.of_int_array marks;
    arrs = Slab.of_int_array arrs;
    p_epochs;
    symtab;
    rmark_table = Event.Code.rmark_table ~max_code:!max_rcode;
    p_layout = t.layout;
    p_golden = t.golden_memory;
    p_total_events = t.total_events;
    n_slots;
    p_max_tickets = !max_tickets;
  }

(* ------------------------------------------------------------------ *)
(* Streaming builder: packed traces as the native output of generation  *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  (* Slots stream into fixed-size chunks of five Bigarray slabs, in the
     layout of [packed]; [finish] copies the live slots into exact-size
     slabs. Task and epoch descriptors are built as the records [packed]
     holds, each epoch's tasks in an array sized from its iteration count.
     Nothing on the per-event path allocates or hashes: the interpreter
     passes array ids, marks convert from AST codes without an
     intermediate variant, and compute work coalesces into a pending
     counter exactly as {!of_program} does. [pack] above stays as the
     independent reference implementation the test suite checks this
     builder against, slot for slot. *)

  let chunk_slots = 4096

  type chunk = { c_ops : Slab.t; c_addrs : Slab.t; c_values : Slab.t; c_marks : Slab.t; c_arrs : Slab.t }

  let take_chunk () =
    let slab () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk_slots in
    { c_ops = slab (); c_addrs = slab (); c_values = slab (); c_marks = slab (); c_arrs = slab () }

  let no_task = { p_iter = 0; off = 0; len = 0; ticket0 = 0; n_locks = 0 }

  type t = {
    mutable cur : chunk;  (** the chunk being filled *)
    mutable full : chunk list;  (** filled chunks, newest first *)
    mutable i : int;  (** next free slot of [cur] *)
    mutable base : int;  (** slots in [full] *)
    mutable finished : bool;
    mutable total : int;  (** memory + sync events, as in {!t.total_events} *)
    mutable pending_work : int;
    mutable layout : Shape.layout option;
    mutable max_rcode : int;
    mutable epochs : pepoch list;  (** closed epochs, newest first *)
    mutable cur_kind : epoch_kind;
    mutable tasks : ptask array;  (** the open epoch's tasks *)
    mutable n_tasks : int;
    mutable task_iter : int;
    mutable task_off : int;
    mutable task_ticket0 : int;
    mutable ticket : int;
    mutable max_tickets : int;
  }

  let create () =
    {
      cur = take_chunk ();
      full = [];
      i = 0;
      base = 0;
      finished = false;
      total = 0;
      pending_work = 0;
      layout = None;
      max_rcode = 0;
      epochs = [];
      cur_kind = Serial;
      tasks = [||];
      n_tasks = 0;
      task_iter = 0;
      task_off = 0;
      task_ticket0 = 0;
      ticket = 0;
      max_tickets = 0;
    }

  let next_chunk b =
    if b.finished then invalid_arg "Trace.Builder: used after finish";
    b.full <- b.cur :: b.full;
    b.base <- b.base + chunk_slots;
    b.cur <- take_chunk ();
    b.i <- 0

  let[@inline] pos b = b.base + b.i

  (* Chunks are not zero-filled, so every slot writes all five fields;
     [i] is below [chunk_slots], the length of every chunk slab. *)
  let[@inline] put b ~op ~addr ~value ~mark ~arr =
    if b.i >= chunk_slots then next_chunk b;
    let i = b.i and c = b.cur in
    b.i <- i + 1;
    Bigarray.Array1.unsafe_set c.c_ops i op;
    Bigarray.Array1.unsafe_set c.c_addrs i addr;
    Bigarray.Array1.unsafe_set c.c_values i value;
    Bigarray.Array1.unsafe_set c.c_marks i mark;
    Bigarray.Array1.unsafe_set c.c_arrs i arr

  let[@inline] flush_work b =
    if b.pending_work > 0 then begin
      put b ~op:Event.Code.compute ~addr:b.pending_work ~value:0 ~mark:0 ~arr:0;
      b.pending_work <- 0
    end

  let emit_work b n = b.pending_work <- b.pending_work + n

  let emit_read b ~array ~addr ~value ~rcode =
    flush_work b;
    if rcode > b.max_rcode then b.max_rcode <- rcode;
    put b ~op:Event.Code.read ~addr ~value ~mark:rcode ~arr:array;
    b.total <- b.total + 1

  let emit_write b ~array ~addr ~value ~wcode =
    flush_work b;
    put b ~op:Event.Code.write ~addr ~value ~mark:wcode ~arr:array;
    b.total <- b.total + 1

  let emit_lock b =
    flush_work b;
    put b ~op:Event.Code.lock ~addr:0 ~value:0 ~mark:0 ~arr:0;
    b.ticket <- b.ticket + 1;
    b.total <- b.total + 1

  let emit_unlock b =
    flush_work b;
    put b ~op:Event.Code.unlock ~addr:0 ~value:0 ~mark:0 ~arr:0;
    b.total <- b.total + 1

  (* [Eval] runs one task per iteration of a parallel epoch and one per
     serial epoch; the array still grows for hooks that run more *)
  let epoch_begin b kind =
    b.cur_kind <- kind;
    b.tasks <- Array.make (match kind with Serial -> 1 | Parallel { lo; hi } -> max 0 (hi - lo + 1)) no_task;
    b.n_tasks <- 0;
    b.ticket <- 0

  let task_begin b ~iter =
    b.task_iter <- iter;
    b.task_off <- pos b;
    b.task_ticket0 <- b.ticket;
    b.pending_work <- 0

  let task_end b =
    flush_work b;
    let n = b.n_tasks in
    if n = Array.length b.tasks then b.tasks <- Array.append b.tasks (Array.make (max 1 n) no_task);
    b.tasks.(n) <-
      {
        p_iter = b.task_iter;
        off = b.task_off;
        len = pos b - b.task_off;
        ticket0 = b.task_ticket0;
        n_locks = b.ticket - b.task_ticket0;
      };
    b.n_tasks <- n + 1

  let epoch_end b =
    if b.ticket > b.max_tickets then b.max_tickets <- b.ticket;
    let p_tasks = if b.n_tasks = Array.length b.tasks then b.tasks else Array.sub b.tasks 0 b.n_tasks in
    b.epochs <- { p_kind = b.cur_kind; p_tasks; p_n_tickets = b.ticket } :: b.epochs

  (** Close the builder: copy the live slots out into exact-size slabs. *)
  let finish b ~golden =
    let layout =
      match b.layout with
      | Some l -> l
      | None -> invalid_arg "Trace.Builder: finish before init"
    in
    if b.finished then invalid_arg "Trace.Builder: finish after finish";
    let n = pos b and chunks = List.rev (b.cur :: b.full) in
    let exact field =
      let s = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      List.iteri
        (fun k c ->
          let off = k * chunk_slots in
          let len = min chunk_slots (n - off) in
          Bigarray.Array1.blit (Bigarray.Array1.sub (field c) 0 len) (Bigarray.Array1.sub s off len))
        chunks;
      s
    in
    let p =
      {
        ops = exact (fun c -> c.c_ops);
        addrs = exact (fun c -> c.c_addrs);
        values = exact (fun c -> c.c_values);
        marks = exact (fun c -> c.c_marks);
        arrs = exact (fun c -> c.c_arrs);
        p_epochs = Array.of_list (List.rev b.epochs);
        symtab = symtab_of_layout layout;
        rmark_table = Event.Code.rmark_table ~max_code:b.max_rcode;
        p_layout = layout;
        p_golden = golden;
        p_total_events = b.total;
        n_slots = n;
        p_max_tickets = b.max_tickets;
      }
    in
    (* any later emit must fail, not append to a trace already handed
       out *)
    b.finished <- true;
    b.full <- [];
    b.i <- chunk_slots;
    p

  (** Eval hooks appending straight into the chunks — the streaming trace
      generator. The mark conversions go AST-code directly, so the per-event
      path constructs no variant cells. *)
  let hooks b : Eval.hooks =
    {
      Eval.on_init = (fun layout -> b.layout <- Some layout);
      on_epoch_begin =
        (fun kind ->
          epoch_begin b
            (match kind with
            | Eval.Serial -> Serial
            | Eval.Parallel { lo; hi } -> Parallel { lo; hi }));
      on_epoch_end = (fun () -> epoch_end b);
      on_task_begin = (fun ~iter -> task_begin b ~iter);
      on_task_end = (fun () -> task_end b);
      on_read =
        (fun ~array ~addr ~value ~mark ->
          emit_read b ~array ~addr ~value ~rcode:(Event.Code.of_ast_rmark mark));
      on_write =
        (fun ~array ~addr ~value ~mark ->
          emit_write b ~array ~addr ~value ~wcode:(Event.Code.of_ast_wmark mark));
      on_work = (fun n -> emit_work b n);
      on_lock = (fun () -> emit_lock b);
      on_unlock = (fun () -> emit_unlock b);
    }
end

(** Generate the packed trace directly: run the instrumented interpreter
    with builder hooks, never materializing the boxed [t]. Replay results
    are bit-identical to [pack (of_program p)] (asserted by the tests). *)
let of_program_packed ?(check_races = true) ?(line_words = 4) (program : Ast.program) =
  let b = Builder.create () in
  let result = Eval.run ~hooks:(Builder.hooks b) ~check_races ~line_words program in
  Builder.finish b ~golden:result.Eval.final_memory

let packed_memory_words (p : packed) = max 1 p.p_layout.Shape.total_words

(** Live heap words of the packed slabs (five ints per slot plus task and
    epoch descriptors) — the footprint EXPERIMENTS.md reports against the
    boxed form's per-event blocks. Counts slab *capacity*, not just live
    slots: builder-grown slabs may hold up to 2x headroom and that memory
    is just as resident. *)
let packed_slab_words (p : packed) =
  let task_words = 8 (* 5 fields + header + ~2 amortized epoch overhead *) in
  (5 * max 1 (Slab.length p.ops))
  + Array.fold_left (fun acc e -> acc + (task_words * Array.length e.p_tasks)) 0 p.p_epochs

(* --- packed-native trace statistics (no boxed form required) --- *)

let packed_n_epochs (p : packed) = Array.length p.p_epochs

let packed_n_parallel_epochs (p : packed) =
  Array.fold_left
    (fun acc e -> match e.p_kind with Parallel _ -> acc + 1 | Serial -> acc)
    0 p.p_epochs

(** (reads, writes) over the live slots of a packed trace. *)
let packed_access_counts (p : packed) =
  let reads = ref 0 and writes = ref 0 in
  for i = 0 to p.n_slots - 1 do
    let op = Slab.get p.ops i in
    if op = Event.Code.read then incr reads
    else if op = Event.Code.write then incr writes
  done;
  (!reads, !writes)

let n_epochs t = Array.length t.epochs

let memory_words t = max 1 t.layout.Shape.total_words
