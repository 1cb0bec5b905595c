(** Workload characterization: static/dynamic properties of a trace, the
    kind of table evaluation sections open with (program sizes, reference
    counts, sharing degrees). *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = {
  epochs : int;
  parallel_epochs : int;
  tasks : int;
  reads : int;
  writes : int;
  compute_cycles : int;
  lock_events : int;
  footprint_words : int;  (** distinct words touched *)
  shared_words : int;  (** words touched by more than one processor (block map) *)
  avg_parallelism : float;  (** mean tasks per parallel epoch *)
  marked_reads : int;  (** reads carrying a Time-Read/Bypass mark *)
}

let of_trace (cfg : Config.t) (p : Trace.packed) =
  (* bit set of processors per word, as an int mask (<= 62 procs); a
     touched word's mask is never 0 *)
  let touched = Array.make (Trace.packed_memory_words p) 0 in
  let reads = ref 0 and writes = ref 0 and compute = ref 0 and locks = ref 0 in
  let marked = ref 0 and tasks = ref 0 and par_epochs = ref 0 and par_tasks = ref 0 in
  Array.iter
    (fun (epoch : Trace.pepoch) ->
      let ntasks = Array.length epoch.p_tasks in
      (match epoch.p_kind with
      | Trace.Parallel _ ->
        incr par_epochs;
        par_tasks := !par_tasks + ntasks
      | Trace.Serial -> ());
      Array.iteri
        (fun rank (task : Trace.ptask) ->
          incr tasks;
          let proc =
            match epoch.p_kind with
            | Trace.Serial -> 0
            | Trace.Parallel _ ->
              if Schedule.is_static cfg then Schedule.static_proc cfg ~ntasks rank
              else rank mod cfg.processors
          in
          let bit = 1 lsl min proc 61 in
          for i = task.off to task.off + task.len - 1 do
            let op = Trace.Slab.get p.ops i in
            if op = Event.Code.read || op = Event.Code.write then begin
              let addr = Trace.Slab.get p.addrs i in
              touched.(addr) <- touched.(addr) lor bit;
              if op = Event.Code.write then incr writes
              else begin
                incr reads;
                match p.rmark_table.(Trace.Slab.get p.marks i) with
                | Event.Time_read _ | Event.Bypass_read -> incr marked
                | Event.Normal_read | Event.Unmarked -> ()
              end
            end
            else if op = Event.Code.compute then compute := !compute + Trace.Slab.get p.addrs i
            else if op = Event.Code.lock then incr locks
          done)
        epoch.p_tasks)
    p.p_epochs;
  let footprint = ref 0 and shared = ref 0 in
  Array.iter
    (fun mask ->
      if mask <> 0 then incr footprint;
      if mask land (mask - 1) <> 0 then incr shared)
    touched;
  {
    epochs = Array.length p.p_epochs;
    parallel_epochs = !par_epochs;
    tasks = !tasks;
    reads = !reads;
    writes = !writes;
    compute_cycles = !compute;
    lock_events = !locks;
    footprint_words = !footprint;
    shared_words = !shared;
    avg_parallelism =
      (if !par_epochs = 0 then 0.0 else float_of_int !par_tasks /. float_of_int !par_epochs);
    marked_reads = !marked;
  }

(** Fraction of reads the compiler could not prove safe. *)
let marked_read_fraction t = Hscd_util.Stats.ratio t.marked_reads t.reads

(** Fraction of the footprint actively shared between processors. *)
let sharing_fraction t = Hscd_util.Stats.ratio t.shared_words t.footprint_words
