(** Bounded exhaustive model checking of the coherence schemes.

    Where the fuzzer ({!Fuzz}) samples the space of well-formed traces,
    the model checker enumerates it: every scheme is driven *directly*
    (no re-model) as a guarded-action transition system over a small
    scope — 2–3 processors, 1–2 words, a depth bound long enough to
    cover the full timetag-wrap window — and every reachable state is
    visited exactly once. "No counterexample found" then means "none
    exists at this scope", which is a much stronger statement than any
    number of fuzz iterations.

    {b States} are the scheme's abstract coherence state
    ({!Scheme.S.snapshot}: memory image, cached words, epoch/version
    counters, directory entries) joined with the checker's own guard
    state (golden memory, last-write epochs, per-epoch ownership, write
    history). {b Actions} are reads, writes, epoch advances and (in
    migration mode) task migrations, guarded by exactly the
    compiler-soundness rules the generator ({!Gen}) and the shrinker's
    {!Golden.mark_sound} encode — so every explored path is a race-free
    trace with sound marks, on which every scheme must return the
    current golden value for every read.

    Each explored path is checked with the same per-step {!Monitor}
    invariants the fuzz oracle uses, plus cross-scheme value agreement
    against a lockstep BASE reference instance and a memory-image
    comparison against golden at every epoch boundary. Schemes are
    mutable with no undo, so the search is stateless: a state is
    identified by its action prefix and expansion replays the prefix on
    fresh instances — cheap at this scope, and it makes frontier
    expansion embarrassingly parallel ({!Pool.supervise}).

    On a violation the action sequence converts to a packed trace
    ({!trace_of_actions}) that replays through {!Hscd_sim.Engine.run},
    closing the loop from abstract counterexample to concrete engine
    failure. Correct schemes explore violation-free (asserted by the
    [mc-smoke] test); a fault grafted on with {!Fault.wrap} must produce
    a counterexample that the engine replay also flags. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Shape = Hscd_lang.Shape
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Pool = Hscd_util.Pool
module Err = Hscd_util.Hscd_error

(* ------------------------------------------------------------------ *)
(* Scope                                                               *)
(* ------------------------------------------------------------------ *)

type scope = {
  procs : int;  (** processors = tasks per parallel epoch *)
  words : int;  (** shared data words (addresses [0 .. words-1]) *)
  line_words : int;  (** >1 puts several words in one line (companion fills) *)
  timetag_bits : int;  (** 2 gives the tightest wrap: reset every 2 epochs *)
  depth : int;  (** bound on actions per explored path *)
  migration : bool;  (** dynamic scheduling with mid-task migration rules *)
  max_states : int;  (** safety valve; exceeding it truncates the search *)
}

(** 2 procs × 1 word × depth 10 under 2-bit timetags: depth 10 crosses
    more than one full 2·phase-epoch wrap cycle with accesses to spare,
    so timetag recycling and the two-phase reset are inside the scope. *)
let default_scope =
  {
    procs = 2;
    words = 1;
    line_words = 1;
    timetag_bits = 2;
    depth = 10;
    migration = false;
    max_states = 200_000;
  }

(** Machine configuration for a scope: a deliberately tiny cache (64
    words) so the scope's lines all fit, the scope's line size and
    timetag width, and static block scheduling (task rank = processor,
    the identity map the checker's guards assume) unless migration mode
    asks for dynamic self-scheduling. *)
let cfg_of scope =
  Config.validate
    {
      Config.default with
      processors = scope.procs;
      line_words = scope.line_words;
      timetag_bits = scope.timetag_bits;
      cache_bytes = 64 * Config.default.word_bytes;
      scheduling = (if scope.migration then Config.Dynamic else Config.Block);
      migration_rate = (if scope.migration then 0.25 else 0.0);
    }

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)
(* ------------------------------------------------------------------ *)

type action =
  | Read of { task : int; word : int; mark : Event.rmark }
  | Write of { task : int; word : int }
  | Migrate of { task : int }  (** migration mode only: move the task one processor over *)
  | Advance  (** epoch boundary on every instance *)

let action_to_string = function
  | Read { task; word; mark } ->
    let m =
      match mark with
      | Event.Unmarked -> "unmarked"
      | Event.Normal_read -> "normal"
      | Event.Time_read d -> Printf.sprintf "time%d" d
      | Event.Bypass_read -> "bypass"
    in
    Printf.sprintf "read[%s task=%d word=%d]" m task word
  | Write { task; word } -> Printf.sprintf "write[task=%d word=%d]" task word
  | Migrate { task } -> Printf.sprintf "migrate[task=%d]" task
  | Advance -> "advance"

let actions_to_string actions = String.concat " " (List.map action_to_string actions)

(** Deterministic value of the [n]-th (1-based) write to [word]. Keyed
    to the word, not a global counter, so different interleavings that
    reach the same per-word history produce the same snapshot and the
    states merge. *)
let write_value ~word ~n = ((word + 1) * 1000) + n

(* ------------------------------------------------------------------ *)
(* One simulation: subject scheme + BASE reference + guard state        *)
(* ------------------------------------------------------------------ *)

type sim = {
  scope : scope;
  cfg : Config.t;
  fault : Fault.t option;
  subject : Scheme.packed;
  reference : Scheme.packed;  (** lockstep BASE instance *)
  monitor : Monitor.t;
  golden : int array;  (** current golden memory *)
  history : (int * int) list array;  (** per word: (epoch, value), newest first *)
  nwrites : int array;  (** per word write counter (drives {!write_value}) *)
  lwe : int array;  (** last write epoch per word, -1 = never *)
  current : Bytes.t array;  (** per proc, per word: copy provably current *)
  owner : int array;  (** this-epoch writer task per word, -1 = none *)
  accessed_by : int array;  (** this-epoch accessor: -1 none, task, -2 mixed readers *)
  proc_of : int array;  (** task -> processor; identity at each epoch start *)
  migrated : Bytes.t;  (** per task: already migrated this epoch *)
  mutable epoch : int;
  mutable reads : int;  (** total reads issued (fault-hidden-state mirror) *)
  mutable mviol : int;  (** monitor violations already converted to [violation] *)
  mutable violation : string option;
}

let fresh ?fault scope kind =
  let cfg = cfg_of scope in
  let make k =
    let network = Kruskal_snir.create cfg in
    let traffic = Traffic.create cfg in
    Run.pack k cfg ~memory_words:scope.words ~network ~traffic
  in
  let subject =
    let inner = make kind in
    match fault with
    | Some f -> Fault.wrap f ~processors:cfg.Config.processors inner
    | None -> inner
  in
  {
    scope;
    cfg;
    fault;
    subject;
    reference = make Run.Base;
    monitor = Monitor.create ~processors:cfg.Config.processors ~words:scope.words;
    golden = Array.make scope.words 0;
    history = Array.make scope.words [];
    nwrites = Array.make scope.words 0;
    lwe = Array.make scope.words (-1);
    current = Array.init cfg.Config.processors (fun _ -> Bytes.make scope.words '\000');
    owner = Array.make scope.words (-1);
    accessed_by = Array.make scope.words (-1);
    proc_of = Array.init scope.procs (fun i -> i);
    migrated = Bytes.make scope.procs '\000';
    epoch = 0;
    reads = 0;
    mviol = 0;
    violation = None;
  }

let p_read packed ~proc ~addr ~mark =
  match packed with
  | Scheme.Packed ((module S), s) -> (S.read s ~proc ~addr ~array:0 ~mark).Scheme.value

let p_write packed ~proc ~addr ~value =
  match packed with
  | Scheme.Packed ((module S), s) ->
    ignore (S.write s ~proc ~addr ~array:0 ~value ~mark:Event.Normal_write)

let p_boundary packed ~stalls =
  match packed with Scheme.Packed ((module S), s) -> S.epoch_boundary s ~stalls

let p_memory packed = match packed with Scheme.Packed ((module S), s) -> S.memory_image s
let p_snapshot packed = match packed with Scheme.Packed ((module S), s) -> S.snapshot s

let fail sim fmt =
  Printf.ksprintf (fun s -> if sim.violation = None then sim.violation <- Some s) fmt

let check_monitor sim =
  let report = Monitor.report sim.monitor in
  let n = List.length report in
  if n > sim.mviol then begin
    sim.mviol <- n;
    fail sim "monitor: %s" (Monitor.violation_to_string (List.nth report (n - 1)))
  end

(** In migration mode the task→processor map is not statically known to
    the "compiler", so the guards may not rely on it (no owner-aligned
    Normal marks, no current-copy tracking) even though the checker
    drives each scheme with a concrete processor. *)
let proc_known sim = not sim.scope.migration

let apply sim action =
  if sim.violation <> None then ()
  else
    match action with
    | Write { task; word } ->
      let proc = sim.proc_of.(task) in
      sim.nwrites.(word) <- sim.nwrites.(word) + 1;
      let value = write_value ~word ~n:sim.nwrites.(word) in
      Monitor.on_write sim.monitor ~addr:word value;
      sim.golden.(word) <- value;
      sim.history.(word) <- (sim.epoch, value) :: sim.history.(word);
      sim.lwe.(word) <- sim.epoch;
      Array.iter (fun c -> Bytes.set c word '\000') sim.current;
      if proc_known sim then Bytes.set sim.current.(proc) word '\001';
      sim.owner.(word) <- task;
      sim.accessed_by.(word) <-
        (if sim.accessed_by.(word) = -1 || sim.accessed_by.(word) = task then task else -2);
      p_write sim.subject ~proc ~addr:word ~value;
      p_write sim.reference ~proc ~addr:word ~value;
      check_monitor sim
    | Read { task; word; mark } ->
      let proc = sim.proc_of.(task) in
      sim.reads <- sim.reads + 1;
      let v = p_read sim.subject ~proc ~addr:word ~mark in
      Monitor.on_read sim.monitor ~proc ~addr:word ~mark v;
      let vref = p_read sim.reference ~proc ~addr:word ~mark in
      sim.accessed_by.(word) <-
        (if sim.accessed_by.(word) = -1 || sim.accessed_by.(word) = task then task else -2);
      (match mark with
      | Event.Time_read _ when proc_known sim ->
        (* both the hit and the refetch path leave a current copy *)
        Bytes.set sim.current.(proc) word '\001'
      | _ -> ());
      check_monitor sim;
      if sim.violation = None && v <> sim.golden.(word) then
        fail sim "epoch %d: %s returned %d, current golden value of word %d is %d"
          sim.epoch (action_to_string action) v word sim.golden.(word);
      if sim.violation = None && vref <> sim.golden.(word) then
        fail sim "epoch %d: BASE reference returned %d for word %d, golden is %d" sim.epoch
          vref word sim.golden.(word);
      if sim.violation = None && v <> vref then
        fail sim "epoch %d: scheme/BASE disagree on word %d: %d vs %d" sim.epoch word v vref
    | Migrate { task } ->
      Bytes.set sim.migrated task '\001';
      sim.proc_of.(task) <- (sim.proc_of.(task) + 1) mod sim.cfg.Config.processors
    | Advance ->
      let stalls = Array.make sim.cfg.Config.processors 0 in
      p_boundary sim.subject ~stalls;
      Monitor.on_boundary sim.monitor stalls;
      p_boundary sim.reference ~stalls;
      sim.epoch <- sim.epoch + 1;
      Array.fill sim.owner 0 (Array.length sim.owner) (-1);
      Array.fill sim.accessed_by 0 (Array.length sim.accessed_by) (-1);
      Array.iteri (fun i _ -> sim.proc_of.(i) <- i) sim.proc_of;
      Bytes.fill sim.migrated 0 (Bytes.length sim.migrated) '\000';
      check_monitor sim;
      if sim.violation = None then begin
        (* every scheme keeps its memory image eagerly current, so it
           must equal golden whenever the write buffers have drained *)
        let img = p_memory sim.subject in
        Array.iteri
          (fun w g ->
            if sim.violation = None && img.(w) <> g then
              fail sim "after boundary of epoch %d: memory word %d holds %d, golden is %d"
                (sim.epoch - 1) w img.(w) g)
          sim.golden
      end

(** Actions enabled by the compiler-soundness guards ({!Gen} /
    {!Golden.mark_sound}): race-freedom makes a word written this epoch
    private to the writing task; [Time_read d] needs
    [d <= epoch - last_write_epoch] (one less under migration); Normal
    reads of written words need a provably current copy on a statically
    known processor; bypass reads are always sound. Only the two
    boundary distances ([dmax] and 0) are enumerated — intermediate
    distances are strictly safer and add no new scheme behavior. Writes
    are capped at one per word per epoch to keep the space finite
    without losing any coherence interaction. *)
let enabled sim =
  let acts = ref [ Advance ] in
  let add a = acts := a :: !acts in
  for task = sim.scope.procs - 1 downto 0 do
    if sim.scope.migration && Bytes.get sim.migrated task = '\000' then add (Migrate { task });
    for word = sim.scope.words - 1 downto 0 do
      if sim.owner.(word) < 0 || sim.owner.(word) = task then begin
        if
          sim.owner.(word) < 0
          && (sim.accessed_by.(word) = -1 || sim.accessed_by.(word) = task)
        then add (Write { task; word });
        let proc = sim.proc_of.(task) in
        if sim.lwe.(word) < 0 then begin
          add (Read { task; word; mark = Event.Normal_read });
          add (Read { task; word; mark = Event.Unmarked });
          add (Read { task; word; mark = Event.Bypass_read })
        end
        else begin
          let dist = sim.epoch - sim.lwe.(word) in
          let dmax = if sim.scope.migration && dist > 0 then dist - 1 else dist in
          add (Read { task; word; mark = Event.Bypass_read });
          add (Read { task; word; mark = Event.Time_read dmax });
          if dmax > 0 then add (Read { task; word; mark = Event.Time_read 0 });
          if proc_known sim && Bytes.get sim.current.(proc) word = '\001' then
            add (Read { task; word; mark = Event.Normal_read })
        end
      end
    done
  done;
  List.rev !acts

(** Hash-dedup key: subject snapshot, reference snapshot, and the full
    guard state (the monitor's shadow history included — two prefixes
    with equal scheme state but different write histories could still
    diverge on a future stale-time-read verdict). Faults with hidden
    state outside the snapshot (the corrupt-read counter) fold the read
    count in, trading dedup for soundness. Digested to keep the visited
    table small. *)
let state_key sim =
  let b = Buffer.create 512 in
  Buffer.add_string b (p_snapshot sim.subject);
  Buffer.add_char b '#';
  Buffer.add_string b (p_snapshot sim.reference);
  Buffer.add_char b '#';
  Scheme.Snap.int b sim.epoch;
  Scheme.Snap.ints b sim.golden;
  Scheme.Snap.ints b sim.nwrites;
  Scheme.Snap.ints b sim.lwe;
  Scheme.Snap.ints b sim.owner;
  Scheme.Snap.ints b sim.accessed_by;
  Scheme.Snap.ints b sim.proc_of;
  Array.iter
    (fun c ->
      Buffer.add_bytes b c;
      Scheme.Snap.sep b)
    sim.current;
  Buffer.add_bytes b sim.migrated;
  Scheme.Snap.sep b;
  Array.iter
    (fun h ->
      List.iter
        (fun (e, v) ->
          Scheme.Snap.int b e;
          Scheme.Snap.int b v)
        h;
      Scheme.Snap.sep b)
    sim.history;
  (match sim.fault with
  | Some (Fault.Corrupt_read_value _) -> Scheme.Snap.int b sim.reads
  | _ -> ());
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Bounded breadth-first search                                        *)
(* ------------------------------------------------------------------ *)

type stats = {
  states : int;  (** distinct reachable states (initial included) *)
  transitions : int;  (** explored edges *)
  depth_reached : int;  (** levels fully expanded *)
  truncated : bool;  (** hit [max_states] before the depth bound *)
  elapsed : float;  (** wall seconds *)
}

type counterexample = { cx_kind : Run.scheme_kind; actions : action list; violation : string }

type report = {
  kind : Run.scheme_kind;
  fault : Fault.t option;
  scope : scope;
  stats : stats;
  counterexample : counterexample option;
}

let replay_prefix sim prefix = Array.iter (apply sim) prefix

(* Expand one prefix: replay it once to read off the enabled actions,
   then replay-and-apply per action (schemes have no copy or undo, so
   the search is stateless — prefix replay *is* the state). *)
let expand ?fault scope kind prefix =
  let sim = fresh ?fault scope kind in
  replay_prefix sim prefix;
  match sim.violation with
  | Some v ->
    (* a frontier prefix was violation-free when enqueued; replay is
       deterministic, so this is unreachable — surface it if not *)
    [ (Advance, Error (Printf.sprintf "prefix replay diverged: %s" v)) ]
  | None ->
    List.map
      (fun a ->
        let s2 = fresh ?fault scope kind in
        replay_prefix s2 prefix;
        apply s2 a;
        match s2.violation with Some v -> (a, Error v) | None -> (a, Ok (state_key s2)))
      (enabled sim)

let chunk_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(** Exhaustive bounded exploration of one scheme. Level-synchronous
    BFS: each level's prefixes are chunked and expanded in parallel on
    the supervised pool (expansion is pure, so retries are harmless and
    results are bit-deterministic); the visited table is updated only in
    the supervising domain. Stops at the first counterexample — BFS
    order makes it a shortest one. *)
let explore ?fault ?jobs ?(progress = fun (_ : int) (_ : int) -> ()) scope kind =
  let t0 = Unix.gettimeofday () in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  Hashtbl.replace visited (state_key (fresh ?fault scope kind)) ();
  let transitions = ref 0 in
  let truncated = ref false in
  let cx = ref None in
  let frontier = ref [ [||] ] in
  let depth = ref 0 in
  while !cx = None && !frontier <> [] && !depth < scope.depth && not !truncated do
    let chunks = chunk_list 64 !frontier in
    let outcomes, _ =
      Pool.supervise ?jobs
        (fun prefixes -> List.map (fun p -> (p, expand ?fault scope kind p)) prefixes)
        chunks
    in
    let next = ref [] in
    List.iter
      (fun outcome ->
        match outcome with
        | Pool.Done results ->
          List.iter
            (fun (prefix, expansions) ->
              List.iter
                (fun (a, res) ->
                  incr transitions;
                  match res with
                  | Error v ->
                    if !cx = None then
                      cx :=
                        Some
                          {
                            cx_kind = kind;
                            actions = Array.to_list prefix @ [ a ];
                            violation = v;
                          }
                  | Ok key ->
                    if not (Hashtbl.mem visited key) then
                      if Hashtbl.length visited >= scope.max_states then truncated := true
                      else begin
                        Hashtbl.replace visited key ();
                        next := Array.append prefix [| a |] :: !next
                      end)
                expansions)
            results
        | Pool.Failed e -> raise (Err.Error (Err.add_context "mc frontier expansion" e))
        | Pool.Timed_out s ->
          Err.fail Err.Timeout "mc frontier expansion chunk gave up after %.1fs" s)
      outcomes;
    incr depth;
    progress !depth (Hashtbl.length visited);
    frontier := List.rev !next
  done;
  {
    kind;
    fault;
    scope;
    stats =
      {
        states = Hashtbl.length visited;
        transitions = !transitions;
        depth_reached = !depth;
        truncated = !truncated;
        elapsed = Unix.gettimeofday () -. t0;
      };
    counterexample = !cx;
  }

let ok r = r.counterexample = None && not r.stats.truncated

(** Explore every scheme in [schemes] at the same scope. *)
let check_all ?fault ?jobs ?(schemes = Run.extended_schemes) scope =
  List.map (fun kind -> explore ?fault ?jobs scope kind) schemes

(* ------------------------------------------------------------------ *)
(* Counterexample replay through the timing engine                     *)
(* ------------------------------------------------------------------ *)

(** Convert an action sequence into a boxed trace: epochs split at
    [Advance], every epoch parallel with exactly [procs] tasks so the
    engine's block schedule maps task rank [r] onto processor [r] — the
    identity map the checker drove the scheme with. Write values are
    recomputed with {!write_value}, read values and the golden memory
    are stamped by {!Golden.resolve}. [Migrate] actions have no trace
    form (engine migration is scheduler-driven), so migration-mode
    replay is best-effort: the trace is still race-free with sound
    marks, but the engine may schedule it differently. *)
let trace_of_actions scope actions : Trace.t =
  (* Pad the image to a multiple of 8 words so line fetches stay in
     bounds when the trace is replayed under a config with wider lines
     than the scope's (e.g. the 4-word-line corpus replay config). *)
  let words =
    let used = max 1 scope.words in
    let line = max 8 scope.line_words in
    (used + line - 1) / line * line
  in
  let layout =
    let arrays = Hashtbl.create 1 in
    Hashtbl.replace arrays "A" { Shape.name = "A"; dims = [ words ]; size = words; base = 0 };
    { Shape.arrays; total_words = words }
  in
  let nwrites = Array.make words 0 in
  let epochs = ref [] in
  let tasks = Array.make scope.procs [] in
  let flush () =
    let ts =
      Array.mapi
        (fun r evs ->
          let evs = List.rev evs in
          let evs = if evs = [] then [ Event.Compute 1 ] else evs in
          { Trace.iter = r; events = Array.of_list evs })
        tasks
    in
    epochs :=
      { Trace.kind = Trace.Parallel { lo = 0; hi = scope.procs - 1 }; tasks = ts } :: !epochs;
    Array.fill tasks 0 (Array.length tasks) []
  in
  List.iter
    (fun a ->
      match a with
      | Read { task; word; mark } ->
        tasks.(task) <-
          Event.Read { addr = word; mark; value = 0; array = "A" } :: tasks.(task)
      | Write { task; word } ->
        nwrites.(word) <- nwrites.(word) + 1;
        tasks.(task) <-
          Event.Write
            {
              addr = word;
              mark = Event.Normal_write;
              value = write_value ~word ~n:nwrites.(word);
              array = "A";
            }
          :: tasks.(task)
      | Migrate _ -> ()
      | Advance -> flush ())
    actions;
  flush ();
  Golden.resolve
    {
      Trace.epochs = Array.of_list (List.rev !epochs);
      layout;
      golden_memory = Array.make words 0;
      total_events = 0;
    }

(** Replay a counterexample through {!Hscd_sim.Engine.run} under the
    scope's machine configuration (same fault injected, if any),
    checked by the full differential oracle. Returns the trace and the
    oracle outcome; a genuine counterexample makes [Oracle.ok] false on
    the same scheme. *)
let replay ?fault ?jobs scope (cx : counterexample) =
  let trace = trace_of_actions scope cx.actions in
  let fault = Option.map (fun f -> (cx.cx_kind, f)) fault in
  (trace, Oracle.run ~schemes:[ cx.cx_kind ] ?fault ?jobs (cfg_of scope) (Trace.pack trace))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let describe_scope s =
  Printf.sprintf "%d procs x %d words (%d-word lines), %d-bit tags, depth %d%s" s.procs
    s.words s.line_words s.timetag_bits s.depth
    (if s.migration then ", migration" else "")

let describe r =
  let verdict =
    match r.counterexample with
    | Some cx ->
      Printf.sprintf "COUNTEREXAMPLE (%d actions)\n    %s\n    %s" (List.length cx.actions)
        (actions_to_string cx.actions) cx.violation
    | None -> if r.stats.truncated then "truncated (state cap hit)" else "ok"
  in
  Printf.sprintf "%-9s %8d states %9d transitions  depth %2d  %6.2fs  %s%s"
    (Run.scheme_name r.kind) r.stats.states r.stats.transitions r.stats.depth_reached
    r.stats.elapsed
    (match r.fault with Some f -> "[" ^ Fault.name f ^ "] " | None -> "")
    verdict
