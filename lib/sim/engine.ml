(** The multiprocessor timing engine.

    Replays a {!Trace.packed} trace against one coherence scheme: DOALL
    tasks are assigned to processors by the configured scheduling policy,
    events are processed in global clock order (a conservative
    discrete-event interleaving, so directory state transitions happen in
    simulated-time order), critical sections are granted in trace order
    via tickets, and every epoch ends with a barrier, the scheme's
    boundary work (two-phase resets, buffer drains) and a network-load
    update for the analytic delay model. Every load's value is checked
    against the golden interpreter — a failing scheme cannot hide.

    The hot path builds no block per event or per task: events are
    decoded by index from the packed trace's unboxed int slabs (read
    marks via a preallocated decode table, so no [Time_read] cell is ever
    built), schemes fill a reused scratch {!Scheme.access_result} from
    flat cache arrays, work items are rank+offset encoded in a single int
    and popped from unboxed deques, a task's critical-section tickets are
    a base+count pair instead of a list, and all per-epoch scratch
    (processor states, ticket slots, ready queue, deques) is allocated
    once per run and reset across epochs. What replay still
    allocates is per epoch (its closures) and per machine as the trace
    first touches it (cache frames, fetch maps, directory entries): the
    benchmark's traced runs measure [engine.words_per_event] at about
    0.64 on paper-tables and 2.3 on p1024-sweep.

    The next processor to run comes from {!Ready}, a binary min-heap of
    one packed int per runnable processor, [(clock lsl pbits) lor pidx]:
    a single int compare orders by clock and breaks ties on the lowest
    index, the order a linear lowest-clock scan would produce. The heap's
    key array is padded with [max_int] past its live prefix, so a
    sift-down picks the smaller child without a bounds test or a branch.
    After each event the running processor goes back through
    {!Ready.push_pop}: while its key is still below the root it keeps
    running without touching the heap, otherwise it replaces the root
    with one sift-down. A compute slot that follows an event and is not
    the last of its range is applied with that event, saving a trip
    through the heap: compute touches no shared state, so the next
    shared event keeps its key. Processors leave the queue while blocked
    on a critical-section ticket — parked in a per-ticket slot and
    re-enqueued by the matching unlock — or while out of work, and idle
    processors are woken in index order when self-scheduled work
    reappears (a migrated task tail); an idle count skips that scan when
    no processor is idle. Work queues are ring-buffer deques, so task
    distribution is O(1) per task.

    An epoch pays only for the processors it uses: a processor's record
    is reset when the epoch first hands it work, only those processors
    are activated (a self-scheduled epoch's queue goes to processors in
    index order until it runs out), and the barrier takes the latest of
    their clocks plus stalls, while every processor the epoch never used
    finishes at the epoch's start plus its stall.

    The per-event path calls no other module except the scheme's
    [read]/[write]: slabs are read with [Bigarray.Array1.get] at their
    concrete type (an inline, bounds-checked load), and the ready queue,
    miss-class counting and write-mark decode live in this file. Builds
    with [-opaque] (dune's dev profile, which [dune exec] and the
    benchmark use) cannot inline across modules, so each such call would
    otherwise be an indirect call through a module block.

    {!run_boxed} replays a boxed {!Trace.t} through the same timing model,
    with a {!Hscd_util.Minheap} ready queue. Only tests call it: it is the
    independent reference the packed path is checked against, bit for
    bit. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Deque = Hscd_util.Deque
module Minheap = Hscd_util.Minheap
module Symtab = Hscd_util.Symtab
module Slab = Trace.Slab

type violation = { epoch : int; proc : int; addr : int; expected : int; got : int }

type result = {
  cycles : int;
  metrics : Metrics.t;
  violations : violation list;  (** capped at [max_violations] *)
  memory_ok : bool;  (** final scheme memory equals the golden memory *)
  network_load : float;  (** last estimated utilization *)
}

let max_violations = 10

(* ------------------------------------------------------------------ *)
(* Per-event helpers, local so the hot loop inlines them               *)
(* ------------------------------------------------------------------ *)

(* [Slab.get] at the slab's concrete type: the primitive compiles to an
   inline bounds-checked load *)
let[@inline] sget (s : Slab.t) i = Bigarray.Array1.get s i

(* same numbering as {!Metrics.class_index} *)
let[@inline] class_index : Scheme.miss_class -> int = function
  | Scheme.Hit -> 0
  | Scheme.Cold -> 1
  | Scheme.Replacement -> 2
  | Scheme.True_sharing -> 3
  | Scheme.False_sharing -> 4
  | Scheme.Conservative -> 5
  | Scheme.Reset_inv -> 6
  | Scheme.Uncached -> 7

let[@inline] record_read (m : Metrics.t) (r : Scheme.access_result) =
  let c = class_index r.Scheme.cls in
  m.read_classes.(c) <- m.read_classes.(c) + 1;
  if c <> 0 then begin
    m.read_miss_count <- m.read_miss_count + 1;
    m.read_miss_cycles <- m.read_miss_cycles + r.Scheme.latency
  end

let[@inline] record_write (m : Metrics.t) (r : Scheme.access_result) =
  let c = class_index r.Scheme.cls in
  m.write_classes.(c) <- m.write_classes.(c) + 1

(* {!Event.Code.wmark_of} *)
let[@inline] wmark_of code = if code = 0 then Event.Normal_write else Event.Bypass_write

module Ready = struct
  type t = {
    keys : int array;
        (** heap-ordered packed keys, [size] of them live; every slot at or
            past [size] holds [max_int], and one spare slot past the
            largest heap means a last left child always has a right one *)
    mutable size : int;
    pbits : int;  (** bits of the processor index in a key *)
  }

  let create ~processors =
    let rec bits b = if (processors - 1) lsr b = 0 then b else bits (b + 1) in
    { keys = Array.make (max 1 processors + 1) max_int; size = 0; pbits = bits 0 }

  let[@inline] key t ~clock pidx = (clock lsl t.pbits) lor pidx
  let[@inline] pidx t key = key land ((1 lsl t.pbits) - 1)
  let clock t key = key asr t.pbits

  (* clocks below this leave a factor-of-two headroom before a key wraps *)
  let clock_limit t = max_int asr (t.pbits + 1)

  let length t = t.size

  let clear t =
    Array.fill t.keys 0 t.size max_int;
    t.size <- 0

  (* sifts move a hole and write [key] once, where it lands *)
  let rec sift_up (a : int array) i key =
    if i = 0 then a.(0) <- key
    else begin
      let parent = (i - 1) lsr 1 in
      let pk = a.(parent) in
      if pk > key then begin
        a.(i) <- pk;
        sift_up a parent key
      end
      else a.(i) <- key
    end

  (* a missing right child reads [max_int], so the smaller child is picked
     by one compare whose result is added to the index, not branched on *)
  let rec sift_down (a : int array) n i key =
    let l = (2 * i) + 1 in
    if l >= n then a.(i) <- key
    else begin
      let c = l + Bool.to_int (a.(l + 1) < a.(l)) in
      let ck = a.(c) in
      if ck < key then begin
        a.(i) <- ck;
        sift_down a n c key
      end
      else a.(i) <- key
    end

  let push t key =
    let i = t.size in
    t.size <- i + 1;
    sift_up t.keys i key

  let pop t =
    if t.size = 0 then -1
    else begin
      let a = t.keys in
      let top = a.(0) in
      let n = t.size - 1 in
      t.size <- n;
      let last = a.(n) in
      a.(n) <- max_int;
      if n > 0 then sift_down a n 0 last;
      top
    end

  (* an empty heap's root is [max_int], above every key *)
  let[@inline] push_pop t key =
    let a = t.keys in
    if key < a.(0) then key
    else begin
      let top = a.(0) in
      sift_down a t.size 0 key;
      top
    end
end

(* ------------------------------------------------------------------ *)
(* Packed-native replay                                                *)
(* ------------------------------------------------------------------ *)

(* A work item is a task rank plus a resume offset (> 0 for migrated
   tails), packed into one immediate int so the work deques never box. *)
let w_bits = 31
let w_mask = (1 lsl w_bits) - 1
let w_item ~rank ~start = (rank lsl w_bits) lor start
let w_rank w = w lsr w_bits
let w_start w = w land w_mask

type pstate = {
  s_pidx : int;  (** this processor's index — no identity scans *)
  mutable s_clock : int;
  s_pending : int Deque.t;  (** static assignment, encoded work items *)
  mutable s_idx : int;  (** current slot (absolute slab index) *)
  mutable s_stop : int;  (** exclusive bound; < [s_end] when migrating away *)
  mutable s_end : int;  (** absolute end of the current task's slots *)
  mutable s_off : int;  (** current task's first slot *)
  mutable s_rank : int;  (** current task's rank, -1 when none *)
  mutable s_next_ticket : int;  (** next unclaimed ticket of the task *)
  mutable s_left : int;  (** tickets not yet claimed *)
  mutable s_epoch : int;  (** epoch the record was last reset for *)
  mutable s_idle : bool;  (** out of work; meaningful once reset for the epoch *)
}

(* blocked when the next event is a Lock whose ticket is not yet due; a
   top-level function, so the per-epoch closures need not capture it *)
let[@inline] blocked ops p ~expected =
  p.s_idx < p.s_stop
  && sget ops p.s_idx = Event.Code.lock
  && p.s_left > 0
  && p.s_next_ticket <> expected

let run ?(on_epoch = fun (_ : int) -> ()) (cfg : Config.t) (Scheme.Packed ((module S), sch))
    ~(net : Kruskal_snir.t) ~(traffic : Traffic.t) (trace : Trace.packed) =
  let metrics = Metrics.create () in
  let violations = ref [] in
  let nviol = ref 0 in
  let global = ref 0 in
  let prng = Hscd_util.Prng.of_int 0x5ca1ab1e in
  let ops = trace.Trace.ops in
  let addrs = trace.Trace.addrs in
  let values = trace.Trace.values in
  let marks = trace.Trace.marks in
  let arrs = trace.Trace.arrs in
  let rmark_table = trace.Trace.rmark_table in
  (* scratch allocated once per run, reset across epochs *)
  let procs =
    Array.init cfg.processors (fun s_pidx ->
        { s_pidx; s_clock = 0; s_pending = Deque.create (); s_idx = 0; s_stop = 0; s_end = 0;
          s_off = 0; s_rank = -1; s_next_ticket = 0; s_left = 0; s_epoch = -1; s_idle = true })
  in
  (* the processors reset this epoch, in first-use order *)
  let touched = Array.make cfg.processors 0 in
  let n_touched = ref 0 in
  (* idle processors, counting those not yet reset this epoch *)
  let n_idle = ref 0 in
  let dynamic_queue = Deque.create ~capacity:16 () in
  let ready = Ready.create ~processors:cfg.processors in
  let ticket_waiter = Array.make (max 1 trace.Trace.p_max_tickets) (-1) in
  let stalls = Array.make cfg.processors 0 in
  Array.iteri
    (fun epoch_no (epoch : Trace.pepoch) ->
      on_epoch epoch_no;
      if !global >= Ready.clock_limit ready then
        Hscd_util.Hscd_error.fail Internal
          "Engine.run: clock %d at epoch %d leaves no headroom in the ready queue's %d-bit \
           processor keys"
          !global epoch_no ready.Ready.pbits;
      let tasks = epoch.Trace.p_tasks in
      let ntasks = Array.length tasks in
      let n_tickets = epoch.Trace.p_n_tickets in
      n_touched := 0;
      n_idle := cfg.processors;
      Deque.clear dynamic_queue;
      Ready.clear ready;
      Array.fill ticket_waiter 0 n_tickets (-1);
      (* a processor's record is reset when the epoch first uses it, so an
         epoch costs only the processors it runs; one never reset idles at
         [!global] *)
      let touch p =
        if p.s_epoch <> epoch_no then begin
          p.s_epoch <- epoch_no;
          p.s_clock <- !global;
          Deque.clear p.s_pending;
          p.s_idx <- 0;
          p.s_stop <- 0;
          p.s_end <- 0;
          p.s_off <- 0;
          p.s_rank <- -1;
          p.s_next_ticket <- 0;
          p.s_left <- 0;
          p.s_idle <- true;
          touched.(!n_touched) <- p.s_pidx;
          incr n_touched
        end
      in
      let assign pi w =
        let p = procs.(pi) in
        touch p;
        Deque.push_back p.s_pending w
      in
      (* task distribution *)
      (match epoch.Trace.p_kind with
      | Trace.Serial ->
        for rank = 0 to ntasks - 1 do
          assign 0 (w_item ~rank ~start:0)
        done
      | Trace.Parallel _ ->
        if Schedule.is_static cfg then
          for rank = 0 to ntasks - 1 do
            assign (Schedule.static_proc cfg ~ntasks rank) (w_item ~rank ~start:0)
          done
        else
          for rank = 0 to ntasks - 1 do
            Deque.push_back dynamic_queue (w_item ~rank ~start:0)
          done);
      (* critical-section tickets *)
      let expected_ticket = ref 0 in
      let lock_release = ref 0 in
      let parallel =
        match epoch.Trace.p_kind with Trace.Parallel _ -> true | Trace.Serial -> false
      in
      let start_task p ~dynamic w =
        let rank = w_rank w and start = w_start w in
        let t = tasks.(rank) in
        p.s_off <- t.Trace.off;
        p.s_idx <- t.Trace.off + start;
        p.s_end <- t.Trace.off + t.Trace.len;
        p.s_stop <- p.s_end;
        p.s_rank <- rank;
        p.s_next_ticket <- t.Trace.ticket0;
        p.s_left <- t.Trace.n_locks;
        if start > 0 then
          (* resuming migrated work: reload task state on the new node *)
          p.s_clock <- p.s_clock + (2 * cfg.lock_cycles);
        (* decide here whether this task will migrate away mid-execution;
           lock-holding tasks never migrate *)
        if
          dynamic && parallel && start = 0 && t.Trace.n_locks = 0 && t.Trace.len > 1
          && cfg.migration_rate > 0.0
          && Hscd_util.Prng.float prng < cfg.migration_rate
        then p.s_stop <- p.s_off + 1 + Hscd_util.Prng.int prng (t.Trace.len - 1)
      in
      (* advance to the next task with events left; empty tasks are skipped *)
      let rec try_refill p =
        if p.s_idx < p.s_stop then true
        else begin
          (* migrating away: the unexecuted tail goes back to the shared
             queue for another processor to pick up *)
          if p.s_rank >= 0 && p.s_stop < p.s_end then begin
            metrics.migrations <- metrics.migrations + 1;
            Deque.push_back dynamic_queue
              (w_item ~rank:p.s_rank ~start:(p.s_stop - p.s_off))
          end;
          p.s_rank <- -1;
          p.s_end <- 0;
          p.s_stop <- 0;
          let w = Deque.pop_front_or p.s_pending ~empty:(-1) in
          if w >= 0 then begin
            start_task p ~dynamic:false w;
            try_refill p
          end
          else begin
            let w = Deque.pop_front_or dynamic_queue ~empty:(-1) in
            if w >= 0 then begin
              (* self-scheduling: fetching the shared iteration counter *)
              p.s_clock <- p.s_clock + cfg.lock_cycles;
              start_task p ~dynamic:true w;
              try_refill p
            end
            else false
          end
        end
      in
      (* ready structure: the packed-key queue of runnable processors;
         blocked processors park in the slot of the ticket they wait for,
         workless processors in the idle set *)
      let enqueue p =
        if blocked ops p ~expected:!expected_ticket then ticket_waiter.(p.s_next_ticket) <- p.s_pidx
        else Ready.push ready (Ready.key ready ~clock:p.s_clock p.s_pidx)
      in
      (* refill p and put it wherever it now belongs: the ready queue, a ticket
         slot, or the idle set *)
      let activate p =
        if try_refill p then begin
          if p.s_idle then begin
            p.s_idle <- false;
            decr n_idle
          end;
          enqueue p
        end
        else if not p.s_idle then begin
          p.s_idle <- true;
          incr n_idle
        end
      in
      (* self-scheduled work is waiting (an epoch's tasks, or a migrated
         tail that landed on an empty queue): idle processors claim it in
         index order, like a linear scan, stopping once it runs out *)
      let rec wake_from i =
        if i < Array.length procs && not (Deque.is_empty dynamic_queue) then begin
          let p = procs.(i) in
          if p.s_epoch <> epoch_no || p.s_idle then begin
            touch p;
            activate p
          end;
          wake_from (i + 1)
        end
      in
      let wake_idle () =
        if !n_idle > 0 && not (Deque.is_empty dynamic_queue) then wake_from 0
      in
      (* only processors holding static work are reset yet; the dynamic
         queue, if any, goes to the rest in index order *)
      for k = 0 to !n_touched - 1 do
        activate procs.(touched.(k))
      done;
      wake_idle ();
      (* [key] is the packed key of the processor to run next, -1 once no
         processor is runnable *)
      let rec loop key =
        if key >= 0 then begin
          let proc = Ready.pidx ready key in
          let p = procs.(proc) in
          let i = p.s_idx in
          let op = sget ops i in
          if op = Event.Code.compute then begin
            let n = sget addrs i in
            p.s_clock <- p.s_clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n
          end
          else if op = Event.Code.read then begin
            let addr = sget addrs i in
            let r =
              S.read sch ~proc ~addr ~array:(sget arrs i) ~mark:rmark_table.(sget marks i)
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            record_read metrics r;
            let golden = sget values i in
            if r.Scheme.value <> golden then begin
              if !nviol < max_violations then
                violations :=
                  { epoch = epoch_no; proc; addr; expected = golden; got = r.Scheme.value }
                  :: !violations;
              incr nviol
            end
          end
          else if op = Event.Code.write then begin
            let r =
              S.write sch ~proc ~addr:(sget addrs i) ~array:(sget arrs i) ~value:(sget values i)
                ~mark:(wmark_of (sget marks i))
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            record_write metrics r
          end
          else if op = Event.Code.lock then begin
            if p.s_left > 0 then begin
              assert (p.s_next_ticket = !expected_ticket);
              p.s_next_ticket <- p.s_next_ticket + 1;
              p.s_left <- p.s_left - 1
            end;
            let ready_at = Int.max p.s_clock !lock_release in
            metrics.lock_wait_cycles <- metrics.lock_wait_cycles + (ready_at - p.s_clock);
            metrics.lock_acquires <- metrics.lock_acquires + 1;
            p.s_clock <- ready_at + cfg.lock_cycles
          end
          else begin
            (* unlock *)
            lock_release := p.s_clock;
            incr expected_ticket;
            (* unblock the processor waiting on the now-due ticket *)
            if !expected_ticket < n_tickets then begin
              let w = ticket_waiter.(!expected_ticket) in
              if w >= 0 then begin
                ticket_waiter.(!expected_ticket) <- -1;
                Ready.push ready (Ready.key ready ~clock:procs.(w).s_clock w)
              end
            end
          end;
          (* a compute slot right after touches no shared state, so it is
             applied now, saving a trip through the queue; the next shared
             event keeps its (clock, pidx) key. A range's last slot is
             never folded, so task ends and queue claims keep their order *)
          let j = i + 1 in
          if j + 1 < p.s_stop && sget ops j = Event.Code.compute then begin
            let n = sget addrs j in
            p.s_clock <- p.s_clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n;
            p.s_idx <- j + 1
          end
          else p.s_idx <- j;
          (* a runnable processor stays on unless another one is now
             earlier: one compare, or one sift-down replacing the root *)
          if p.s_idx < p.s_stop && not (blocked ops p ~expected:!expected_ticket) then
            loop (Ready.push_pop ready (Ready.key ready ~clock:p.s_clock proc))
          else begin
            if p.s_idx < p.s_stop then ticket_waiter.(p.s_next_ticket) <- proc
            else begin
              activate p;
              wake_idle ()
            end;
            loop (Ready.pop ready)
          end
        end
      in
      loop (Ready.pop ready);
      (* epoch boundary: scheme work (into the per-run stall scratch),
         barrier, network-load update *)
      S.epoch_boundary sch ~stalls;
      let max_stall = ref 0 in
      for i = 0 to Array.length stalls - 1 do
        if stalls.(i) > !max_stall then max_stall := stalls.(i)
      done;
      (* a processor never reset this epoch finishes at [!global] *)
      let finish = ref (!global + !max_stall) in
      for k = 0 to !n_touched - 1 do
        let i = touched.(k) in
        let p = procs.(i) in
        (* every runnable processor has drained its range, so one still
           inside it is parked on a ticket no task grants *)
        if p.s_idx < p.s_stop then
          Hscd_util.Hscd_error.fail Corrupt
            "Engine.run: epoch %d ends with processor %d waiting for ticket %d, which no task \
             grants"
            epoch_no i p.s_next_ticket;
        let c = p.s_clock + stalls.(i) in
        if c > !finish then finish := c
      done;
      metrics.barriers <- metrics.barriers + 1;
      global := !finish + cfg.barrier_cycles;
      Kruskal_snir.set_load net (Traffic.window_load traffic ~now_cycle:!global))
    trace.Trace.p_epochs;
  metrics.cycles <- !global;
  metrics.traffic <- Traffic.snapshot traffic;
  metrics.scheme_stats <- S.stats sch;
  metrics.violations <- !nviol;
  let memory_ok =
    let img = S.memory_image sch in
    let golden = trace.Trace.p_golden in
    Array.length img = Array.length golden
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if golden.(i) <> v then ok := false) img;
    !ok
  in
  {
    cycles = !global;
    metrics;
    violations = List.rev !violations;
    memory_ok;
    network_load = Kruskal_snir.load net;
  }

(* ------------------------------------------------------------------ *)
(* Legacy boxed replay (equivalence baseline)                          *)
(* ------------------------------------------------------------------ *)

type work_item = {
  rank : int;
  w_task : Trace.task;
  start : int;  (** first event index to execute (> 0 for migrated work) *)
  w_tickets : int list;
}

type proc_state = {
  pidx : int;  (** this processor's index — no identity scans *)
  mutable clock : int;
  pending : work_item Deque.t;  (** static assignment *)
  mutable events : Event.t array;  (** current task's events *)
  mutable idx : int;
  mutable stop : int;  (** exclusive bound; < length when migrating away *)
  mutable cur : work_item option;
  mutable tickets : int list;  (** lock tickets of the current task *)
}

let assign_tickets (epoch : Trace.epoch) =
  (* tickets in (rank, event) order so the engine can grant critical
     sections in the golden interpreter's order *)
  let counter = ref 0 in
  let per_task =
    Array.map
      (fun (task : Trace.task) ->
        Array.to_list task.events
        |> List.filter_map (function
             | Event.Lock ->
               let t = !counter in
               incr counter;
               Some t
             | _ -> None))
      epoch.tasks
  in
  (per_task, !counter)

let run_boxed (cfg : Config.t) (Scheme.Packed ((module S), sch)) ~(net : Kruskal_snir.t)
    ~(traffic : Traffic.t) (trace : Trace.t) =
  let metrics = Metrics.create () in
  let violations = ref [] in
  let nviol = ref 0 in
  let global = ref 0 in
  let prng = Hscd_util.Prng.of_int 0x5ca1ab1e in
  (* the boxed stream carries array names; intern them exactly as the
     packed form does so both paths hand schemes identical dense ids *)
  let symtab = Trace.symtab_of_layout trace.Trace.layout in
  let stalls = Array.make cfg.processors 0 in
  Array.iteri
    (fun epoch_no (epoch : Trace.epoch) ->
      let ntasks = Array.length epoch.tasks in
      let tickets, n_tickets = assign_tickets epoch in
      let procs =
        Array.init cfg.processors (fun pidx ->
            { pidx; clock = !global; pending = Deque.create (); events = [||]; idx = 0;
              stop = 0; cur = None; tickets = [] })
      in
      let item rank task = { rank; w_task = task; start = 0; w_tickets = tickets.(rank) } in
      (* task distribution *)
      let dynamic_queue = Deque.create ~capacity:(max 1 ntasks) () in
      (match epoch.kind with
      | Trace.Serial ->
        Array.iteri (fun rank task -> Deque.push_back procs.(0).pending (item rank task)) epoch.tasks
      | Trace.Parallel _ ->
        if Schedule.is_static cfg then
          Array.iteri
            (fun rank task ->
              let p = Schedule.static_proc cfg ~ntasks rank in
              Deque.push_back procs.(p).pending (item rank task))
            epoch.tasks
        else Array.iteri (fun rank task -> Deque.push_back dynamic_queue (item rank task)) epoch.tasks);
      (* critical-section tickets *)
      let expected_ticket = ref 0 in
      let lock_release = ref 0 in
      let parallel = match epoch.kind with Trace.Parallel _ -> true | Trace.Serial -> false in
      let start_task p ~dynamic (w : work_item) =
        p.events <- w.w_task.events;
        p.idx <- w.start;
        p.cur <- Some w;
        p.tickets <- w.w_tickets;
        let len = Array.length p.events in
        p.stop <- len;
        if w.start > 0 then
          (* resuming migrated work: reload task state on the new node *)
          p.clock <- p.clock + (2 * cfg.lock_cycles);
        (* decide here whether this task will migrate away mid-execution;
           lock-holding tasks never migrate *)
        if
          dynamic && parallel && w.start = 0 && w.w_tickets = [] && len > 1
          && cfg.migration_rate > 0.0
          && Hscd_util.Prng.float prng < cfg.migration_rate
        then p.stop <- 1 + Hscd_util.Prng.int prng (len - 1)
      in
      (* advance to the next task with events left; empty tasks are skipped *)
      let rec try_refill p =
        if p.idx < p.stop then true
        else begin
          (* migrating away: the unexecuted tail goes back to the shared
             queue for another processor to pick up *)
          (match p.cur with
          | Some w when p.stop < Array.length p.events ->
            metrics.migrations <- metrics.migrations + 1;
            Deque.push_back dynamic_queue { w with start = p.stop }
          | _ -> ());
          p.cur <- None;
          match Deque.pop_front p.pending with
          | Some t ->
            start_task p ~dynamic:false t;
            try_refill p
          | None -> (
            match Deque.pop_front dynamic_queue with
            | Some t ->
              (* self-scheduling: fetching the shared iteration counter *)
              p.clock <- p.clock + cfg.lock_cycles;
              start_task p ~dynamic:true t;
              try_refill p
            | None -> false)
        end
      in
      let blocked p =
        (* blocked when the next event is a Lock whose ticket is not yet due *)
        p.idx < p.stop
        &&
        match p.events.(p.idx) with
        | Event.Lock -> ( match p.tickets with t :: _ -> t <> !expected_ticket | [] -> false)
        | _ -> false
      in
      (* ready structure: min-clock heap of runnable processors; blocked
         processors park in the slot of the ticket they wait for, workless
         processors in the idle set *)
      let ready = Minheap.create cfg.processors in
      let ticket_waiter = Array.make (max 1 n_tickets) (-1) in
      let idle = Array.make cfg.processors false in
      let enqueue p =
        if blocked p then ticket_waiter.(List.hd p.tickets) <- p.pidx
        else Minheap.push ready ~key:p.clock p.pidx
      in
      (* refill p and put it wherever it now belongs: the heap, a ticket
         slot, or the idle set *)
      let activate p =
        if try_refill p then begin
          idle.(p.pidx) <- false;
          enqueue p
        end
        else idle.(p.pidx) <- true
      in
      (* a migrated tail landed on an empty queue: idle processors claim
         it in index order, like the linear scan used to *)
      let wake_idle () =
        if not (Deque.is_empty dynamic_queue) then
          Array.iter (fun p -> if idle.(p.pidx) && not (Deque.is_empty dynamic_queue) then activate p) procs
      in
      Array.iter activate procs;
      wake_idle ();
      let rec loop () =
        match Minheap.pop ready with
        | None -> ()
        | Some (_, pi) ->
          let p = procs.(pi) in
          let proc = p.pidx in
          (match p.events.(p.idx) with
          | Event.Compute n ->
            p.clock <- p.clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n
          | Event.Read { addr; mark; value; array } ->
            let r = S.read sch ~proc ~addr ~array:(Symtab.intern symtab array) ~mark in
            p.clock <- p.clock + r.Scheme.latency;
            record_read metrics r;
            if r.Scheme.value <> value then begin
              if !nviol < max_violations then
                violations :=
                  { epoch = epoch_no; proc; addr; expected = value; got = r.Scheme.value }
                  :: !violations;
              incr nviol
            end
          | Event.Write { addr; mark; value; array } ->
            let r = S.write sch ~proc ~addr ~array:(Symtab.intern symtab array) ~value ~mark in
            p.clock <- p.clock + r.Scheme.latency;
            record_write metrics r
          | Event.Lock ->
            (match p.tickets with
            | t :: rest ->
              assert (t = !expected_ticket);
              p.tickets <- rest
            | [] -> ());
            let ready_at = Int.max p.clock !lock_release in
            metrics.lock_wait_cycles <- metrics.lock_wait_cycles + (ready_at - p.clock);
            metrics.lock_acquires <- metrics.lock_acquires + 1;
            p.clock <- ready_at + cfg.lock_cycles
          | Event.Unlock ->
            lock_release := p.clock;
            incr expected_ticket;
            (* unblock the processor waiting on the now-due ticket *)
            if !expected_ticket < n_tickets then begin
              let w = ticket_waiter.(!expected_ticket) in
              if w >= 0 then begin
                ticket_waiter.(!expected_ticket) <- -1;
                Minheap.push ready ~key:procs.(w).clock w
              end
            end);
          p.idx <- p.idx + 1;
          if p.idx < p.stop then enqueue p
          else begin
            activate p;
            wake_idle ()
          end;
          loop ()
      in
      loop ();
      (* epoch boundary: scheme work (into the per-run stall scratch),
         barrier, network-load update *)
      S.epoch_boundary sch ~stalls;
      let finish = ref !global in
      for i = 0 to Array.length procs - 1 do
        let c = procs.(i).clock + stalls.(i) in
        if c > !finish then finish := c
      done;
      metrics.barriers <- metrics.barriers + 1;
      global := !finish + cfg.barrier_cycles;
      Kruskal_snir.set_load net (Traffic.window_load traffic ~now_cycle:!global))
    trace.epochs;
  metrics.cycles <- !global;
  metrics.traffic <- Traffic.snapshot traffic;
  metrics.scheme_stats <- S.stats sch;
  metrics.violations <- !nviol;
  let memory_ok =
    let img = S.memory_image sch in
    let golden = trace.golden_memory in
    Array.length img = Array.length golden
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if golden.(i) <> v then ok := false) img;
    !ok
  in
  {
    cycles = !global;
    metrics;
    violations = List.rev !violations;
    memory_ok;
    network_load = Kruskal_snir.load net;
  }
