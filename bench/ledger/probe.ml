(** The layer probe: the pipeline behind [Run.compile] and
    [Run.simulate_packed], called one public stage at a time on a sample
    of a workload's own inputs, each call inside a span. Every trace is
    replayed under all seven schemes and under {!Null_scheme}. The
    decomposed results must be bit-identical to what the composed calls
    produced, and every replay must pass the golden-memory and per-load
    value checks. *)

module Ast = Hscd_lang.Ast
module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Engine = Hscd_sim.Engine
module Scheme = Hscd_coherence.Scheme

type input = {
  label : string;
  program : Ast.program;  (** the program as the workload built it *)
  text : string;  (** its printed source, the probe's starting point *)
  cfg : Config.t;
  known : (Run.scheme_kind * Engine.result) list;
      (** results the workload's composed calls produced for this input *)
}

(* per span name: calls, seconds, minor words, all words, work units *)
type acc = { mutable n : int; mutable s : float; mutable minor : float; mutable alloc : float; mutable work : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { n = 0; s = 0.0; minor = 0.0; alloc = 0.0; work = 0.0 } in
    Hashtbl.replace table name a;
    a

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(** Run [f] inside span [name], adding its time, allocation and the work
    units [work] counts in its result to [name]'s totals. *)
let timed ?(work = fun _ -> 0.0) name f =
  let w0 = Gc.minor_words () and a0 = alloc_words () in
  let t0 = Span.now () in
  let r = Span.with_ name f in
  let dt = Span.now () -. t0 in
  let a = acc name in
  a.n <- a.n + 1;
  a.s <- a.s +. dt;
  a.minor <- a.minor +. (Gc.minor_words () -. w0);
  a.alloc <- a.alloc +. (alloc_words () -. a0);
  a.work <- a.work +. work r;
  (r, dt)

let ok (r : Engine.result) = r.Engine.memory_ok && r.Engine.violations = [] && r.Engine.metrics.violations = 0

(** Probe one input; returns the number of checks that failed (0 or 1). *)
let run_input (i : input) =
  let fail what =
    Printf.eprintf "ledger: probe %s: %s\n%!" i.label what;
    1
  in
  let parsed, _ =
    timed ~work:(fun _ -> float_of_int (String.length i.text)) "lang.parse" (fun () ->
        Hscd_lang.Parser.parse_program i.text)
  in
  let checked, _ = timed "lang.sema" (fun () -> Hscd_lang.Sema.check_exn parsed) in
  let static_sched = Hscd_sim.Schedule.is_static i.cfg in
  let marked, _ =
    timed "compiler.mark" (fun () -> Hscd_compiler.Marking.mark_program ~static_sched ~intertask:true checked)
  in
  let m = marked.Hscd_compiler.Marking.program in
  let slots_of (t : Trace.packed) = float_of_int t.Trace.n_slots in
  let trace, _ =
    timed ~work:slots_of "trace.gen" (fun () ->
        Trace.of_program_packed ~check_races:true ~line_words:i.cfg.line_words m)
  in
  let cfg = Config.validate i.cfg in
  let replay name pack =
    let machine, _ =
      timed ("machine.build/" ^ name) (fun () ->
          let network = Hscd_network.Kruskal_snir.create cfg in
          let traffic = Hscd_network.Traffic.create cfg in
          (network, traffic, pack ~network ~traffic))
    in
    let network, traffic, packed = machine in
    timed ~work:(fun _ -> slots_of trace) ("engine.run/" ^ name) (fun () ->
        Engine.run cfg packed ~net:network ~traffic trace)
  in
  let memory_words = Trace.packed_memory_words trace in
  let null_r, null_dt =
    replay Null_scheme.name (fun ~network ~traffic ->
        Scheme.Packed ((module Null_scheme), Null_scheme.create cfg ~memory_words ~network ~traffic))
  in
  let results =
    List.map
      (fun kind ->
        let name = Run.scheme_name kind in
        let r, dt = replay name (fun ~network ~traffic -> Run.pack kind cfg ~memory_words ~network ~traffic) in
        let a = acc ("coherence.access/" ^ name) in
        a.n <- a.n + 1;
        a.s <- a.s +. (dt -. null_dt);
        (kind, r))
      Run.extended_schemes
  in
  let composed = Span.with_ "bench.check" (fun () -> Run.compile ~cfg ~cache:false i.program) in
  if not (Ast.equal_program parsed i.program) then fail "parse(print(program)) differs from the program"
  else if
    not
      (Hscd_sim.Trace_io.equal_packed composed.Run.packed_trace trace
      && Ast.equal_program composed.Run.marked m)
  then fail "decomposed compile differs from Run.compile"
  else if not (ok null_r && List.for_all (fun (_, r) -> ok r) results) then
    fail "a replay failed the golden-memory or value check"
  else if not (List.for_all (fun (kind, r) -> List.assoc kind results = r) i.known) then
    fail "decomposed replay differs from the workload's Run.simulate_packed result"
  else 0

let scheme_names = List.map Run.scheme_name Run.extended_schemes

(** Probe every input; returns the failed checks and the per-layer
    metrics. *)
let run inputs =
  Hashtbl.reset table;
  let failed = List.fold_left (fun n i -> n + run_input i) 0 inputs in
  let ms name = let a = acc name in a.s /. float_of_int (max 1 a.n) *. 1000.0 in
  let per_s name = let a = acc name in a.work /. a.s /. 1e6 in
  let sum_over f names = List.fold_left (fun t name -> t +. f (acc name)) 0.0 names in
  let builds = List.map (fun s -> "machine.build/" ^ s) scheme_names in
  let runs = List.map (fun s -> "engine.run/" ^ s) scheme_names in
  let calls l = sum_over (fun a -> float_of_int a.n) l in
  let real_s = sum_over (fun a -> a.s) runs in
  let null = acc ("engine.run/" ^ Null_scheme.name) in
  let m = Report.m in
  let metrics =
    [
      m "lang.parse_ms" (ms "lang.parse") "ms";
      m "lang.parse_mb_per_s" (per_s "lang.parse") "MB/s";
      m "lang.sema_ms" (ms "lang.sema") "ms";
      m "compiler.mark_ms" (ms "compiler.mark") "ms";
      m "trace.gen_ms" (ms "trace.gen") "ms";
      m "trace.gen_mslots_per_s" (per_s "trace.gen") "M/s";
      m "trace.gen_words_per_slot" ((acc "trace.gen").minor /. (acc "trace.gen").work) "words";
      m "machine.build_ms" (sum_over (fun a -> a.s) builds /. calls builds *. 1000.0) "ms";
      m "machine.build_mwords" (sum_over (fun a -> a.alloc) builds /. calls builds /. 1e6) "Mwords";
      m "engine.replay_ms" (real_s /. calls runs *. 1000.0) "ms";
      m "engine.replay_mev_per_s" (sum_over (fun a -> a.work) runs /. real_s /. 1e6) "M/s";
      m "engine.words_per_event" (sum_over (fun a -> a.minor) runs /. sum_over (fun a -> a.work) runs) "words";
      m "engine.null_replay_ms" (ms ("engine.run/" ^ Null_scheme.name)) "ms";
      m "engine.sched_share" (null.s /. (real_s /. float_of_int (List.length runs))) "ratio";
    ]
    @ List.concat_map
        (fun s ->
          [
            m ("coherence." ^ s ^ ".replay_mev_per_s") (per_s ("engine.run/" ^ s)) "M/s";
            m ("coherence." ^ s ^ ".access_ms") (ms ("coherence.access/" ^ s)) "ms";
            m ("coherence." ^ s ^ ".build_ms") (ms ("machine.build/" ^ s)) "ms";
          ])
        scheme_names
  in
  (failed, metrics)

let input ~label ~cfg ?(known = []) program =
  { label; program; text = Hscd_lang.Printer.program_to_string program; cfg; known }
