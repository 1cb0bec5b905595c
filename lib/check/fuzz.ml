(** The fuzzing driver: deterministic iteration over random parameter
    points and traces, the differential oracle on each, and shrinking of
    any failure to a small replayable repro.

    Per-iteration determinism: a master PRNG seeded with [seed] draws one
    sub-seed per iteration, so iteration [i] of [fuzz ~seed] generates the
    same trace regardless of [count] — a failure report's [index] plus the
    seed is a complete repro recipe.

    Shrinking guards against delta-debugging slippage by requiring the
    reduced trace to fail with (at least one of) the same failing schemes
    as the original, or to reproduce the original's cross-scheme memory
    disagreement. *)

module Config = Hscd_arch.Config
module Prng = Hscd_util.Prng
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io

type failure = {
  index : int;
  params : Gen.params;
  trace : Trace.t;  (** the original failing trace *)
  shrunk : Trace.t option;
  outcome : Oracle.t;  (** oracle verdict on the original trace *)
}

type report = {
  iterations : int;  (** iterations actually executed *)
  total_events : int;  (** events pushed through the differential oracle *)
  failures : failure list;
}

let fuzz ?(schemes = Run.all_schemes) ?fault ?(shrink = true) ?(max_failures = 5) ?jobs
    ~seed ~count () =
  let master = Prng.of_int seed in
  let failures = ref [] in
  let total = ref 0 in
  let i = ref 0 in
  while !i < count && List.length !failures < max_failures do
    let prng = Prng.of_int (Prng.int master max_int) in
    let params = Gen.random_params prng in
    let cfg = Gen.cfg_of params in
    let trace = Gen.generate prng params in
    total := !total + Shrink.event_count trace;
    let outcome = Oracle.run ~schemes ?fault ?jobs cfg trace in
    if not (Oracle.ok outcome) then begin
      let orig_fail = Oracle.failing_schemes outcome in
      let orig_mem_disagree = not outcome.Oracle.memories_agree in
      let failing t =
        (* reject candidates that delta-debugging made ill-formed or
           unsoundly marked — their "failure" would be a generator artifact,
           not the scheme bug we are minimizing *)
        Golden.lint t = []
        && Golden.mark_sound cfg t = []
        &&
        let o = Oracle.run ~schemes ?fault ?jobs cfg t in
        (not (Oracle.ok o))
        && (List.exists (fun k -> List.mem k orig_fail) (Oracle.failing_schemes o)
           || (orig_mem_disagree && not o.Oracle.memories_agree)
           || (orig_fail = [] && Oracle.failing_schemes o = []))
      in
      let shrunk = if shrink then Some (Shrink.minimize ~failing trace) else None in
      failures := { index = !i; params; trace; shrunk; outcome } :: !failures
    end;
    incr i
  done;
  { iterations = !i; total_events = !total; failures = List.rev !failures }

(* --- seed corpus --- *)

(** The fixed configuration every corpus trace is generated under and
    replayed with: 4 processors, 4-word lines, 1 KB caches (eviction
    pressure), 4-bit timetags (two-phase reset every 8 epochs), block
    scheduling. *)
let corpus_cfg =
  Config.validate
    {
      Config.default with
      processors = 4;
      line_words = 4;
      cache_bytes = 1024;
      timetag_bits = 4;
      scheduling = Config.Block;
    }

let corpus_base : Gen.params =
  {
    procs = 4;
    epochs = 10;
    max_tasks = 6;
    data_lines = 8;
    line_words = 4;
    timetag_bits = 4;
    cache_bytes = 1024;
    scheduling = Config.Block;
    migration_rate = 0.0;
    serial_prob = 0.2;
    sharing = 0.5;
    write_prob = 0.35;
    lock_prob = 0.0;
    compute_prob = 0.15;
    max_events = 16;
    adversary = Gen.Plain;
  }

(** Named corpus presets; every preset's [cfg_of] equals {!corpus_cfg}. *)
let corpus_presets : (string * Gen.params) list =
  [
    ("basic", corpus_base);
    ("wrap", { corpus_base with epochs = 20; write_prob = 0.15; adversary = Gen.Timetag_wrap });
    ("locks", { corpus_base with lock_prob = 0.3; epochs = 6 });
    ("false-sharing", { corpus_base with adversary = Gen.False_sharing_layout; sharing = 0.3 });
    ("serial-mix", { corpus_base with serial_prob = 0.6; data_lines = 4 });
  ]

let corpus_seed = 0xC0FFEE

(** Write one deterministic trace per preset into [dir] as
    [<name>.trace]; returns the file paths. *)
let write_corpus ~dir =
  List.map
    (fun (name, params) ->
      let prng = Prng.of_int (corpus_seed + Hashtbl.hash name) in
      let trace = Gen.generate prng params in
      let path = Filename.concat dir (name ^ ".trace") in
      Trace_io.save path (Trace.pack trace);
      path)
    corpus_presets

(** Replay trace files under {!corpus_cfg}; returns per-file verdicts. *)
let replay_corpus ?(schemes = Run.all_schemes) ?jobs files =
  List.map
    (fun path ->
      let trace = Trace_io.load path in
      (path, Oracle.run ~schemes ?jobs corpus_cfg trace))
    files
