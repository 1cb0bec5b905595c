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
    [int array] so slab data lives outside the OCaml heap: the major GC
    never scans it, and a trace's slots cost no heap words (the
    generation gates in [test/alloc_smoke.ml] count on that). Elements
    are OCaml ints (63-bit). *)
module Slab = struct
  type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let length : t -> int = Bigarray.Array1.dim
  let get : t -> int -> int = Bigarray.Array1.get
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
  slots : Slab.t;  (** two words per slot, laid out as described below *)
  p_epochs : pepoch array;
  symtab : Hscd_util.Symtab.t;  (** array-name interning, {!Shape.layout} base order *)
  rmark_table : Event.rmark array;  (** decode table indexed by mark code *)
  p_layout : Shape.layout;
  p_golden : int array;
  p_total_events : int;  (** memory + sync events, as in {!t.total_events} *)
  n_slots : int;  (** total slots incl. compute *)
  p_max_tickets : int;  (** max tickets over all epochs (waiter-slot bound) *)
}

(* Slot [i] is words [2i] and [2i+1] of [slots]. Word [2i] of a read or
   write holds the opcode in bits 0-2, the mark code in bits 3-18, the
   array id in bits 19-31 and the address, signed, from bit 32; for
   compute, lock and unlock it is the opcode alone. Word [2i+1] is the
   golden value of a read or write, the cycle count of a compute slot,
   and 0 for lock and unlock, so replay reads a slot as two adjacent
   words. *)

let op_mask = 0x7
let mark_shift = 3
let mark_mask = 0xFFFF
let arr_shift = 19
let arr_mask = 0x1FFF
let addr_shift = 32
let max_time_read = mark_mask - Event.Code.rmark_base
let max_arrays = arr_mask
let max_memory_words = (1 lsl 30) - 1

(* word [2i] of a read or write; the fields must already fit *)
let[@inline] mem_word ~op ~addr ~mark ~arr =
  op lor (mark lsl mark_shift) lor (arr lsl arr_shift) lor (addr lsl addr_shift)

let[@inline] op (p : packed) i = Slab.get p.slots (2 * i) land op_mask

let addr (p : packed) i =
  let w = Slab.get p.slots (2 * i) in
  if w land op_mask = Event.Code.compute then Slab.get p.slots ((2 * i) + 1) else w asr addr_shift

let value (p : packed) i =
  if op p i = Event.Code.compute then 0 else Slab.get p.slots ((2 * i) + 1)

let mark (p : packed) i = (Slab.get p.slots (2 * i) lsr mark_shift) land mark_mask
let arr (p : packed) i = (Slab.get p.slots (2 * i) lsr arr_shift) land arr_mask

let too_large what n limit =
  Hscd_util.Hscd_error.fail Usage "Trace: %s %d does not fit the packed trace (limit %d)" what n
    limit

(* the limits that depend on the address map alone; every memory slot's
   address and array id then fit their fields *)
let check_layout (layout : Shape.layout) =
  if layout.Shape.total_words > max_memory_words then
    too_large "memory size in words" layout.Shape.total_words max_memory_words;
  let n = Hashtbl.length layout.Shape.arrays in
  if n > max_arrays then too_large "array count" n max_arrays

(** Seed a symtab with the trace's arrays in [Shape.layout] base order —
    the canonical id assignment both replay paths share. *)
let symtab_of_layout (layout : Shape.layout) =
  Hscd_util.Symtab.of_names (List.map (fun (a : Shape.t) -> a.Shape.name) (Shape.arrays_in_order layout))

(** Compile the boxed trace into the packed form: one pass to size the
    slot slab, one to fill it. Tickets are assigned in (rank, event) order
    within each epoch — the order the engine grants critical sections. *)
let pack (t : t) =
  check_layout t.layout;
  let symtab = symtab_of_layout t.layout in
  let n_slots =
    Array.fold_left
      (fun acc e ->
        Array.fold_left (fun acc (task : task) -> acc + Array.length task.events) acc e.tasks)
      0 t.epochs
  in
  let words = Array.make (2 * max 1 n_slots) 0 in
  let pos = ref 0 in
  let max_rcode = ref 0 in
  let max_tickets = ref 0 in
  (* a boxed trace names its arrays and addresses freely; the fields
     bound what the packed form can hold *)
  let mem i ~op ~addr ~value ~mark ~array =
    if addr < -(max_memory_words + 1) || addr > max_memory_words then
      too_large "address" addr max_memory_words;
    let arr = Hscd_util.Symtab.intern symtab array in
    if arr >= max_arrays then too_large "array count" (arr + 1) max_arrays;
    words.(2 * i) <- mem_word ~op ~addr ~mark ~arr;
    words.((2 * i) + 1) <- value
  in
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
                    words.(2 * i) <- Event.Code.compute;
                    words.((2 * i) + 1) <- n
                  | Event.Read { addr; mark; value; array } ->
                    (match mark with
                    | Event.Time_read d when d < 0 || d > max_time_read ->
                      too_large "Time-Read distance" d max_time_read
                    | _ -> ());
                    let c = Event.Code.of_rmark mark in
                    if c > !max_rcode then max_rcode := c;
                    mem i ~op:Event.Code.read ~addr ~value ~mark:c ~array
                  | Event.Write { addr; mark; value; array } ->
                    mem i ~op:Event.Code.write ~addr ~value ~mark:(Event.Code.of_wmark mark) ~array
                  | Event.Lock ->
                    words.(2 * i) <- Event.Code.lock;
                    incr ticket
                  | Event.Unlock -> words.(2 * i) <- Event.Code.unlock)
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
    slots = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout words;
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
  (* Slots stream into fixed-size Bigarray chunks, two words per slot in
     the layout of [packed]; [finish] copies the live words into one
     exact-size slab. Task and epoch descriptors are built as the records
     [packed] holds. Nothing on the per-event path allocates or hashes:
     the interpreter passes array ids, marks convert from AST codes
     without an intermediate variant, and compute work coalesces into a
     pending counter exactly as {!of_program} does. The text loader calls
     the same functions, one slot per line. [pack] above stays as the
     independent reference implementation the test suite checks this
     builder against, slot for slot. *)

  (* 16,384 slots, a 256 KB chunk. OCaml 5.1 charges a Bigarray smaller
     than [Custom_minor_max_bsz] (70,000 bytes) to the major GC only when
     it is promoted, and the major collections that chunk allocation
     paces are what hold generation's resident size down: on the
     fresh-programs benchmark, 4,096-slot (64 KB) chunks peaked at 121 MB
     and 16,384-slot chunks at 88 MB, against 91 MB for five field slabs
     of 4,096 slots. *)
  let chunk_slots = 16384

  let take_chunk () : Slab.t =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * chunk_slots)

  let no_task = { p_iter = 0; off = 0; len = 0; ticket0 = 0; n_locks = 0 }

  type t = {
    mutable cur : Slab.t;  (** the chunk being filled *)
    mutable full : Slab.t list;  (** filled chunks, newest first *)
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

  (* Chunks are not zero-filled, so every slot writes both words; [i] is
     below [chunk_slots], so [2i+1] is inside the chunk. *)
  let[@inline] put b w0 w1 =
    if b.i >= chunk_slots then next_chunk b;
    let i = b.i and c = b.cur in
    b.i <- i + 1;
    Bigarray.Array1.unsafe_set c (2 * i) w0;
    Bigarray.Array1.unsafe_set c ((2 * i) + 1) w1

  let[@inline] flush_work b =
    if b.pending_work > 0 then begin
      put b Event.Code.compute b.pending_work;
      b.pending_work <- 0
    end

  let emit_work b n = b.pending_work <- b.pending_work + n

  (* one slot per call: explicit compute is never coalesced *)
  let compute b n =
    flush_work b;
    put b Event.Code.compute n

  (* the layout bounds every address and array id the interpreter
     passes, so only the mark code needs a check, and only when it sets a
     new maximum *)
  let read b ~array ~addr ~value ~rcode =
    flush_work b;
    if rcode > b.max_rcode then begin
      if rcode > mark_mask then
        too_large "Time-Read distance" (rcode - Event.Code.rmark_base) max_time_read;
      b.max_rcode <- rcode
    end;
    put b (mem_word ~op:Event.Code.read ~addr ~mark:rcode ~arr:array) value;
    b.total <- b.total + 1

  let write b ~array ~addr ~value ~wcode =
    flush_work b;
    put b (mem_word ~op:Event.Code.write ~addr ~mark:wcode ~arr:array) value;
    b.total <- b.total + 1

  let lock b =
    flush_work b;
    put b Event.Code.lock 0;
    b.ticket <- b.ticket + 1;
    b.total <- b.total + 1

  let unlock b =
    flush_work b;
    put b Event.Code.unlock 0;
    b.total <- b.total + 1

  let init b layout =
    check_layout layout;
    b.layout <- Some layout

  (* [tasks] sizes the epoch's task array, which grows for more *)
  let epoch_begin b kind ~tasks =
    b.cur_kind <- kind;
    b.tasks <- Array.make tasks no_task;
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

  (** Close the builder: copy the live words out into one exact-size slab. *)
  let finish b ~golden =
    let layout =
      match b.layout with
      | Some l -> l
      | None -> invalid_arg "Trace.Builder: finish before init"
    in
    if b.finished then invalid_arg "Trace.Builder: finish after finish";
    let n = pos b in
    let slots = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * n) in
    List.iteri
      (fun k c ->
        let off = k * chunk_slots in
        let len = 2 * min chunk_slots (n - off) in
        Bigarray.Array1.(blit (sub c 0 len) (sub slots (2 * off) len)))
      (List.rev (b.cur :: b.full));
    let p =
      {
        slots;
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
      Eval.on_init = (fun layout -> init b layout);
      (* [Eval] runs one task per iteration of a parallel epoch and one
         per serial epoch *)
      on_epoch_begin =
        (function
        | Eval.Serial -> epoch_begin b Serial ~tasks:1
        | Eval.Parallel { lo; hi } -> epoch_begin b (Parallel { lo; hi }) ~tasks:(max 0 (hi - lo + 1)));
      on_epoch_end = (fun () -> epoch_end b);
      on_task_begin = (fun ~iter -> task_begin b ~iter);
      on_task_end = (fun () -> task_end b);
      on_read =
        (fun ~array ~addr ~value ~mark ->
          read b ~array ~addr ~value ~rcode:(Event.Code.of_ast_rmark mark));
      on_write =
        (fun ~array ~addr ~value ~mark ->
          write b ~array ~addr ~value ~wcode:(Event.Code.of_ast_wmark mark));
      on_work = (fun n -> emit_work b n);
      on_lock = (fun () -> lock b);
      on_unlock = (fun () -> unlock b);
    }
end

(** Generate the packed trace directly: run the instrumented interpreter
    with builder hooks, never materializing the boxed [t]. Replay results
    are bit-identical to [pack (of_program p)] (asserted by the tests). *)
let of_program_packed ?(check_races = true) ?(line_words = 4) (program : Ast.program) =
  (* checked before [Eval.run] allocates the memory image *)
  check_layout (Shape.layout ~line_words program.Ast.arrays);
  let b = Builder.create () in
  let result = Eval.run ~hooks:(Builder.hooks b) ~check_races ~line_words program in
  Builder.finish b ~golden:result.Eval.final_memory

let packed_memory_words (p : packed) = max 1 p.p_layout.Shape.total_words

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
    let op = op p i in
    if op = Event.Code.read then incr reads
    else if op = Event.Code.write then incr writes
  done;
  (!reads, !writes)
