(** Sequential reference semantics for event traces.

    The timing engine grants critical sections in rank-major ticket order
    and race-free traces make every other interleaving value-equivalent,
    so replaying an epoch's tasks sequentially in rank order is a correct
    linearization. [resolve] uses that replay to (re)compute the golden
    value of every read and the golden final memory — it is how the
    fuzzer's generator stamps expected values onto a freshly built trace,
    and how the shrinker repairs a trace after deleting events.

    [lint] checks the structural well-formedness the replay (and the
    engine's ticket protocol) relies on: balanced, non-nested critical
    sections, in-bounds addresses, uncached (bypass) marks inside critical
    sections, and race-freedom of parallel epochs — an address written
    outside a critical section is private to the writing task for that
    epoch, and critical-section data is touched only inside sections. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Trace = Hscd_sim.Trace
module Shape = Hscd_lang.Shape
module Schedule = Hscd_sim.Schedule

let resolve (t : Trace.t) : Trace.t =
  let words = max 1 t.layout.Shape.total_words in
  let mem = Array.make words 0 in
  let total = ref 0 in
  let epochs =
    Array.map
      (fun (e : Trace.epoch) ->
        let tasks =
          Array.map
            (fun (task : Trace.task) ->
              let events =
                Array.map
                  (fun ev ->
                    match ev with
                    | Event.Read { addr; mark; value = _; array } ->
                      incr total;
                      Event.Read { addr; mark; value = mem.(addr); array }
                    | Event.Write { addr; value; _ } ->
                      incr total;
                      mem.(addr) <- value;
                      ev
                    | Event.Lock | Event.Unlock ->
                      incr total;
                      ev
                    | Event.Compute _ -> ev)
                  task.events
              in
              { task with events })
            e.tasks
        in
        { e with tasks })
      t.epochs
  in
  { t with epochs; golden_memory = mem; total_events = !total }

(* --- structural linting of (generated or shrunk) traces --- *)

type access = { rank : int; write : bool; in_cs : bool }

let lint (t : Trace.t) : string list =
  let words = max 1 t.layout.Shape.total_words in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iteri
    (fun eno (epoch : Trace.epoch) ->
      let parallel = match epoch.kind with Trace.Parallel _ -> true | Trace.Serial -> false in
      let accesses : (int, access list) Hashtbl.t = Hashtbl.create 64 in
      let note rank ~write ~in_cs addr =
        if addr < 0 || addr >= words then
          err "epoch %d task %d: address %d out of [0,%d)" eno rank addr words
        else
          Hashtbl.replace accesses addr
            ({ rank; write; in_cs } :: Option.value ~default:[] (Hashtbl.find_opt accesses addr))
      in
      Array.iteri
        (fun rank (task : Trace.task) ->
          let depth = ref 0 in
          Array.iter
            (fun ev ->
              match ev with
              | Event.Lock ->
                incr depth;
                if !depth > 1 then err "epoch %d task %d: nested lock" eno rank
              | Event.Unlock ->
                decr depth;
                if !depth < 0 then err "epoch %d task %d: unlock without lock" eno rank
              | Event.Read { addr; mark; _ } ->
                let in_cs = !depth > 0 in
                if in_cs && mark <> Event.Bypass_read then
                  err "epoch %d task %d: non-bypass read in critical section" eno rank;
                note rank ~write:false ~in_cs addr
              | Event.Write { addr; mark; _ } ->
                let in_cs = !depth > 0 in
                if in_cs && mark <> Event.Bypass_write then
                  err "epoch %d task %d: non-bypass write in critical section" eno rank;
                note rank ~write:true ~in_cs addr
              | Event.Compute n -> if n < 0 then err "epoch %d task %d: negative compute" eno rank)
            task.events;
          if !depth <> 0 then err "epoch %d task %d: unbalanced critical section" eno rank)
        epoch.tasks;
      if parallel then
        Hashtbl.iter
          (fun addr accs ->
            let cs, plain = List.partition (fun a -> a.in_cs) accs in
            if cs <> [] && plain <> [] then
              err "epoch %d: address %d mixes critical-section and plain accesses" eno addr;
            let writers =
              List.sort_uniq compare (List.filter_map (fun a -> if a.write then Some a.rank else None) plain)
            in
            match writers with
            | [] | [ _ ] ->
              (match writers with
              | [ w ] ->
                List.iter
                  (fun a ->
                    if a.rank <> w then
                      err "epoch %d: address %d raced (written by task %d, used by task %d)" eno
                        addr w a.rank)
                  plain
              | _ -> ())
            | w0 :: w1 :: _ ->
              err "epoch %d: address %d written by tasks %d and %d" eno addr w0 w1)
          accesses)
    t.epochs;
  List.rev !errs

(* --- mark soundness under a machine configuration --- *)

(** Check that every read mark is conservative enough for the given
    machine: [Time_read d] must keep [d] within the distance to the
    address's last write (one less under mid-task migration, which can
    strand a stale copy timetagged with the write epoch itself on the
    writer's pre-migration processor), and [Normal_read]/[Unmarked] of a
    written address is allowed only when the reading processor is
    statically known and provably holds a current copy. The shrinker uses
    this (with {!lint}) to reject delta-debugging candidates that would
    only "fail" because event deletion made a mark unsound — slippage
    from a real scheme bug to a garbage input. Mirrors the generator's
    marking rules, so [lint] + [mark_sound] accept everything
    {!Gen.generate} emits. *)
let mark_sound (cfg : Config.t) (t : Trace.t) : string list =
  let cfg = Config.validate cfg in
  let words = max 1 t.layout.Shape.total_words in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let static = Schedule.is_static cfg in
  let migration = cfg.scheduling = Config.Dynamic && cfg.migration_rate > 0.0 in
  let lwe = Array.make words (-1) in
  (* per (proc, addr): any resident copy is guaranteed current *)
  let current = Array.init cfg.processors (fun _ -> Bytes.make words '\000') in
  Array.iteri
    (fun eno (epoch : Trace.epoch) ->
      let ntasks = Array.length epoch.tasks in
      let serial = match epoch.kind with Trace.Serial -> true | Trace.Parallel _ -> false in
      Array.iteri
        (fun rank (task : Trace.task) ->
          let proc =
            if serial then Some 0
            else if static then Some (Schedule.static_proc cfg ~ntasks rank)
            else None
          in
          let mark_current addr =
            match proc with Some p -> Bytes.set current.(p) addr '\001' | None -> ()
          in
          Array.iter
            (fun ev ->
              match ev with
              | Event.Read { addr; mark; _ } when addr >= 0 && addr < words -> (
                match mark with
                | Event.Bypass_read -> ()
                | Event.Time_read d ->
                  if lwe.(addr) >= 0 then begin
                    let dist = eno - lwe.(addr) in
                    let bound = if migration && dist > 0 then dist - 1 else dist in
                    if d > bound then
                      err "epoch %d task %d: Time_read %d of addr %d, sound window is %d" eno
                        rank d addr bound
                  end;
                  mark_current addr
                | Event.Normal_read | Event.Unmarked ->
                  if lwe.(addr) >= 0 then (
                    match proc with
                    | Some p when Bytes.get current.(p) addr = '\001' -> ()
                    | _ ->
                      err "epoch %d task %d: Normal/Unmarked read of written addr %d without a current copy"
                        eno rank addr))
              | Event.Write { addr; _ } when addr >= 0 && addr < words ->
                lwe.(addr) <- eno;
                for q = 0 to cfg.processors - 1 do
                  Bytes.set current.(q) addr '\000'
                done;
                mark_current addr
              | _ -> ())
            task.events)
        epoch.tasks)
    t.epochs;
  List.rev !errs
