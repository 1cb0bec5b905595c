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
    sections, and {!Rules}' race-freedom of parallel epochs. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Trace = Hscd_sim.Trace
module Shape = Hscd_lang.Shape

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

let lint (t : Trace.t) : string list =
  let words = max 1 t.layout.Shape.total_words in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* the race rule needs no machine: any configuration will do *)
  let rules = Rules.create Config.default ~words in
  Array.iteri
    (fun eno (epoch : Trace.epoch) ->
      let parallel = epoch.kind <> Trace.Serial in
      Array.iteri
        (fun rank (task : Trace.task) ->
          let depth = ref 0 in
          let access ~write ~bypass addr step =
            let in_cs = !depth > 0 in
            if in_cs && not bypass then
              err "epoch %d task %d: non-bypass %s in critical section" eno rank
                (if write then "write" else "read");
            if addr < 0 || addr >= words then
              err "epoch %d task %d: address %d out of [0,%d)" eno rank addr words
            else if parallel then begin
              Option.iter (err "epoch %d: %s" eno) (Rules.race rules ~task:rank ~write ~in_cs addr);
              step ~in_cs
            end
          in
          Array.iter
            (function
              | Event.Lock ->
                incr depth;
                if !depth > 1 then err "epoch %d task %d: nested lock" eno rank
              | Event.Unlock ->
                decr depth;
                if !depth < 0 then err "epoch %d task %d: unlock without lock" eno rank
              | Event.Read { addr; mark; _ } ->
                access ~write:false ~bypass:(mark = Event.Bypass_read) addr
                  (fun ~in_cs -> Rules.read rules ~task:rank ~proc:None ~in_cs addr mark)
              | Event.Write { addr; mark; _ } ->
                access ~write:true ~bypass:(mark = Event.Bypass_write) addr
                  (fun ~in_cs -> Rules.write rules ~task:rank ~proc:None ~in_cs addr)
              | Event.Compute n -> if n < 0 then err "epoch %d task %d: negative compute" eno rank)
            task.events;
          if !depth <> 0 then err "epoch %d task %d: unbalanced critical section" eno rank)
        epoch.tasks;
      Rules.advance rules)
    t.epochs;
  List.rev !errs

(* --- mark soundness under a machine configuration --- *)

let mark_sound (cfg : Config.t) (t : Trace.t) : string list =
  let words = max 1 t.layout.Shape.total_words in
  let rules = Rules.create (Config.validate cfg) ~words in
  let errs = ref [] in
  Array.iteri
    (fun eno (epoch : Trace.epoch) ->
      let serial = epoch.kind = Trace.Serial and ntasks = Array.length epoch.tasks in
      Array.iteri
        (fun rank (task : Trace.task) ->
          let proc = Rules.known_proc rules ~serial ~ntasks rank in
          Array.iter
            (function
              | Event.Read { addr; mark; _ } when addr >= 0 && addr < words ->
                Option.iter
                  (fun e -> errs := Printf.sprintf "epoch %d task %d: %s" eno rank e :: !errs)
                  (Rules.check_read rules ~proc addr mark);
                Rules.read rules ~task:rank ~proc ~in_cs:false addr mark
              | Event.Write { addr; _ } when addr >= 0 && addr < words ->
                Rules.write rules ~task:rank ~proc ~in_cs:false addr
              | _ -> ())
            task.events)
        epoch.tasks;
      Rules.advance rules)
    t.epochs;
  List.rev !errs
