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

    The hot path is allocation-free in steady state: events are decoded
    by index from the packed trace's unboxed int slabs (read marks via a
    preallocated decode table, so no [Time_read] cell is ever built),
    schemes fill a reused scratch {!Scheme.access_result}, the ready
    queue pops with {!Minheap.pop_min} (no option/tuple), work items are
    rank+offset encoded in a single int, a task's critical-section
    tickets are a base+count pair instead of a list, and all per-epoch
    scratch (processor states, ticket slots, idle set, heap, deques) is
    allocated once per run and reset across epochs.

    The next processor to run is picked from an indexed ready queue (a
    min-clock binary heap with ties broken on the processor index, the
    same order a linear lowest-clock scan would produce) rather than an
    O(P) scan per event. Processors leave the heap while blocked on a
    critical-section ticket — parked in a per-ticket slot and re-enqueued
    by the matching unlock — or while out of work, and idle processors are
    woken in index order when self-scheduled work reappears (a migrated
    task tail). Work queues are ring-buffer deques, so task distribution
    is O(1) per task instead of a quadratic list append.

    {!run_boxed} replays the legacy boxed event stream through the same
    timing model; it exists so tests can assert the packed path is
    bit-identical to it. *)

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
}

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
          s_off = 0; s_rank = -1; s_next_ticket = 0; s_left = 0 })
  in
  let dynamic_queue = Deque.create ~capacity:16 () in
  let ready = Minheap.create cfg.processors in
  let ticket_waiter = Array.make (max 1 trace.Trace.p_max_tickets) (-1) in
  let idle = Array.make cfg.processors false in
  let stalls = Array.make cfg.processors 0 in
  Array.iteri
    (fun epoch_no (epoch : Trace.pepoch) ->
      on_epoch epoch_no;
      let tasks = epoch.Trace.p_tasks in
      let ntasks = Array.length tasks in
      let n_tickets = epoch.Trace.p_n_tickets in
      Array.iter
        (fun p ->
          p.s_clock <- !global;
          Deque.clear p.s_pending;
          p.s_idx <- 0;
          p.s_stop <- 0;
          p.s_end <- 0;
          p.s_off <- 0;
          p.s_rank <- -1;
          p.s_next_ticket <- 0;
          p.s_left <- 0)
        procs;
      Deque.clear dynamic_queue;
      Minheap.clear ready;
      Array.fill ticket_waiter 0 (Array.length ticket_waiter) (-1);
      Array.fill idle 0 (Array.length idle) false;
      (* task distribution *)
      (match epoch.Trace.p_kind with
      | Trace.Serial ->
        for rank = 0 to ntasks - 1 do
          Deque.push_back procs.(0).s_pending (w_item ~rank ~start:0)
        done
      | Trace.Parallel _ ->
        if Schedule.is_static cfg then
          for rank = 0 to ntasks - 1 do
            let p = Schedule.static_proc cfg ~ntasks rank in
            Deque.push_back procs.(p).s_pending (w_item ~rank ~start:0)
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
          match Deque.pop_front p.s_pending with
          | Some t ->
            start_task p ~dynamic:false t;
            try_refill p
          | None -> (
            match Deque.pop_front dynamic_queue with
            | Some t ->
              (* self-scheduling: fetching the shared iteration counter *)
              p.s_clock <- p.s_clock + cfg.lock_cycles;
              start_task p ~dynamic:true t;
              try_refill p
            | None -> false)
        end
      in
      let blocked p =
        (* blocked when the next event is a Lock whose ticket is not yet due *)
        p.s_idx < p.s_stop
        && Slab.get ops p.s_idx = Event.Code.lock
        && p.s_left > 0
        && p.s_next_ticket <> !expected_ticket
      in
      (* ready structure: min-clock heap of runnable processors; blocked
         processors park in the slot of the ticket they wait for, workless
         processors in the idle set *)
      let enqueue p =
        if blocked p then ticket_waiter.(p.s_next_ticket) <- p.s_pidx
        else Minheap.push ready ~key:p.s_clock p.s_pidx
      in
      (* refill p and put it wherever it now belongs: the heap, a ticket
         slot, or the idle set *)
      let activate p =
        if try_refill p then begin
          idle.(p.s_pidx) <- false;
          enqueue p
        end
        else idle.(p.s_pidx) <- true
      in
      (* a migrated tail landed on an empty queue: idle processors claim
         it in index order, like the linear scan used to *)
      let wake_idle () =
        if not (Deque.is_empty dynamic_queue) then
          Array.iter
            (fun p -> if idle.(p.s_pidx) && not (Deque.is_empty dynamic_queue) then activate p)
            procs
      in
      Array.iter activate procs;
      wake_idle ();
      let rec loop () =
        let pi = Minheap.pop_min ready in
        if pi >= 0 then begin
          let p = procs.(pi) in
          let proc = p.s_pidx in
          let i = p.s_idx in
          let op = Slab.get ops i in
          if op = Event.Code.compute then begin
            let n = Slab.get addrs i in
            p.s_clock <- p.s_clock + n;
            metrics.compute_cycles <- metrics.compute_cycles + n
          end
          else if op = Event.Code.read then begin
            let addr = Slab.get addrs i in
            let r =
              S.read sch ~proc ~addr ~array:(Slab.get arrs i)
                ~mark:rmark_table.(Slab.get marks i)
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            Metrics.record_read metrics r;
            let golden = Slab.get values i in
            if r.Scheme.value <> golden then begin
              if !nviol < max_violations then
                violations :=
                  { epoch = epoch_no; proc; addr; expected = golden; got = r.Scheme.value }
                  :: !violations;
              incr nviol
            end
          end
          else if op = Event.Code.write then begin
            let addr = Slab.get addrs i in
            let r =
              S.write sch ~proc ~addr ~array:(Slab.get arrs i) ~value:(Slab.get values i)
                ~mark:(Event.Code.wmark_of (Slab.get marks i))
            in
            p.s_clock <- p.s_clock + r.Scheme.latency;
            Metrics.record_write metrics r
          end
          else if op = Event.Code.lock then begin
            if p.s_left > 0 then begin
              assert (p.s_next_ticket = !expected_ticket);
              p.s_next_ticket <- p.s_next_ticket + 1;
              p.s_left <- p.s_left - 1
            end;
            let ready_at = max p.s_clock !lock_release in
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
                Minheap.push ready ~key:procs.(w).s_clock w
              end
            end
          end;
          p.s_idx <- p.s_idx + 1;
          if p.s_idx < p.s_stop then enqueue p
          else begin
            activate p;
            wake_idle ()
          end;
          loop ()
        end
      in
      loop ();
      (* epoch boundary: scheme work (into the per-run stall scratch),
         barrier, network-load update *)
      S.epoch_boundary sch ~stalls;
      let finish = ref !global in
      for i = 0 to Array.length procs - 1 do
        let c = procs.(i).s_clock + stalls.(i) in
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
            Metrics.record_read metrics r;
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
            Metrics.record_write metrics r
          | Event.Lock ->
            (match p.tickets with
            | t :: rest ->
              assert (t = !expected_ticket);
              p.tickets <- rest
            | [] -> ());
            let ready_at = max p.clock !lock_release in
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
