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

    The hot path builds no block per event or per task: an event is
    decoded by index from two adjacent words of the packed trace's
    unboxed slot slab (opcode, mark code, array id and address from the
    first, value or cycle count from the second; read marks via a
    preallocated decode table, so no [Time_read] cell is ever built),
    schemes fill a reused scratch {!Scheme.access_result} from
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
    [read]/[write]: the slot slab is read with [Bigarray.Array1.get] at
    its concrete type (an inline, bounds-checked load), the slot words
    are decoded here rather than through {!Trace.op} and its siblings,
    and the ready queue, miss-class counting and write-mark decode live
    in this file. Builds
    with [-opaque] (dune's dev profile, which [dune exec] and the
    benchmark use) cannot inline across modules, so each such call would
    otherwise be an indirect call through a module block.

    Every epoch's barrier checks the clock arithmetic: summed over the
    processors the epoch used, the clocks' advance past the epoch's start
    must equal its compute cycles, access latencies and lock waits, plus
    [lock_cycles] per lock acquire and per self-scheduling fetch and
    [2 * lock_cycles] per migrated tail resumed. Each term but the
    latencies is a per-epoch delta of a {!Metrics} counter, or follows
    from one: an epoch's fetches are its tasks plus its migrated tails
    when it is self-scheduled, none otherwise. A mismatch raises
    [Internal]. The check costs one add per access and O(1) per used
    processor per epoch. Its sums stay local: a field in {!result} or
    {!Metrics.t} would change the marshalled bytes that the benchmark's
    digests and the daemon's journals hold. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Deque = Hscd_util.Deque
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

(* Slot-word fields, as laid out in {!Trace.packed}: a compute, lock or
   unlock slot's first word is its bare opcode *)
let[@inline] op_of w = w land 0x7
let[@inline] mark_of w = (w lsr 3) land 0xFFFF
let[@inline] arr_of w = (w lsr 19) land 0x1FFF
let[@inline] addr_of w = w asr 32

(* blocked when the next event is a Lock whose ticket is not yet due; a
   top-level function, so the per-epoch closures need not capture it *)
let[@inline] blocked slots p ~expected =
  p.s_idx < p.s_stop
  && sget slots (2 * p.s_idx) = Event.Code.lock
  && p.s_left > 0
  && p.s_next_ticket <> expected

let run (cfg : Config.t) (Scheme.Packed ((module S), sch)) ~(net : Kruskal_snir.t)
    ~(traffic : Traffic.t) (trace : Trace.packed) =
  let metrics = Metrics.create () in
  let violations = ref [] in
  let nviol = ref 0 in
  let global = ref 0 in
  let prng = Hscd_util.Prng.of_int 0x5ca1ab1e in
  let slots = trace.Trace.slots in
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
  (* the epoch's summed access latencies, for the clock check *)
  let latency = ref 0 in
  Array.iteri
    (fun epoch_no (epoch : Trace.pepoch) ->
      if !global >= Ready.clock_limit ready then
        Hscd_util.Hscd_error.fail Internal
          "Engine.run: clock %d at epoch %d leaves no headroom in the ready queue's %d-bit \
           processor keys"
          !global epoch_no ready.Ready.pbits;
      let tasks = epoch.Trace.p_tasks in
      let ntasks = Array.length tasks in
      let n_tickets = epoch.Trace.p_n_tickets in
      (* the counters the clock check takes per-epoch deltas of *)
      let start = !global in
      let compute0 = metrics.compute_cycles and wait0 = metrics.lock_wait_cycles in
      let acquires0 = metrics.lock_acquires and migrations0 = metrics.migrations in
      latency := 0;
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
        if blocked slots p ~expected:!expected_ticket then ticket_waiter.(p.s_next_ticket) <- p.s_pidx
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
          let w = sget slots (2 * i) in
          let op = op_of w in
          if op = Event.Code.compute then begin
            let n = sget slots ((2 * i) + 1) in
            p.s_clock <- p.s_clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n
          end
          else if op = Event.Code.read then begin
            let addr = addr_of w in
            let r =
              S.read sch ~proc ~addr ~array:(arr_of w) ~mark:rmark_table.(mark_of w)
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            latency := !latency + r.Scheme.latency;
            record_read metrics r;
            let golden = sget slots ((2 * i) + 1) in
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
              S.write sch ~proc ~addr:(addr_of w) ~array:(arr_of w)
                ~value:(sget slots ((2 * i) + 1))
                ~mark:(wmark_of (mark_of w))
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            latency := !latency + r.Scheme.latency;
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
          if j + 1 < p.s_stop && sget slots (2 * j) = Event.Code.compute then begin
            let n = sget slots ((2 * j) + 1) in
            p.s_clock <- p.s_clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n;
            p.s_idx <- j + 1
          end
          else p.s_idx <- j;
          (* a runnable processor stays on unless another one is now
             earlier: one compare, or one sift-down replacing the root *)
          if p.s_idx < p.s_stop && not (blocked slots p ~expected:!expected_ticket) then
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
      let advanced = ref 0 in
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
        advanced := !advanced + (p.s_clock - start);
        let c = p.s_clock + stalls.(i) in
        if c > !finish then finish := c
      done;
      (* clock check: each cycle a used processor advanced is one its
         events account for; every queued task and migrated tail was
         fetched once, and every tail resumed once *)
      let resumes = metrics.migrations - migrations0 in
      let fetches = if parallel && not (Schedule.is_static cfg) then ntasks + resumes else 0 in
      let accounted =
        metrics.compute_cycles - compute0 + !latency + (metrics.lock_wait_cycles - wait0)
        + (cfg.lock_cycles * (metrics.lock_acquires - acquires0 + fetches))
        + (2 * cfg.lock_cycles * resumes)
      in
      if !advanced <> accounted then
        Hscd_util.Hscd_error.fail Internal
          "Engine.run: epoch %d's processor clocks advanced %d cycles past its start, but its \
           events account for %d"
          epoch_no !advanced accounted;
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
