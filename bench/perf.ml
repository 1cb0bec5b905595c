(** Wall-clock performance probes behind the [throughput] runner and
    its [@perf-smoke] gate: engine event throughput at P=64 (with
    allocation-per-event accounting), trace generation throughput, and
    the multicore all-schemes comparison at jobs=1 vs jobs=N. Each times
    the packed trace form only; the boxed references are checked against
    it by the test suite ([test/test_packed.ml]), not timed here. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Engine = Hscd_sim.Engine
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic

(* Words allocated on either heap by [f ()]: machine construction
   allocates arrays too large for the minor heap, which minor-word counts
   never see. OCaml 5 folds a domain's allocation into the counters behind
   [Gc.allocated_bytes] only at collections, so a full major collection on
   each side makes the delta this call's allocation exactly. *)
let allocated_words f =
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.full_major ();
  (r, (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8))

(* One replay with a fresh machine, timed and GC-accounted separately
   from scheme construction: the (seconds, minor-heap words) cost of the
   Engine call alone, and the words allocated building the machine. *)
let replay_packed ~cfg kind (p : Trace.packed) =
  let memory_words = Trace.packed_memory_words p in
  let (network, traffic, sch), build_words =
    allocated_words (fun () ->
        let network = Kruskal_snir.create cfg in
        let traffic = Traffic.create cfg in
        (network, traffic, Run.pack kind cfg ~memory_words ~network ~traffic))
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Engine.run cfg sch ~net:network ~traffic p);
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Gc.minor_words () -. w0, build_words)

type scheme_row = {
  scheme : string;
  packed_eps : float;  (** events/sec, packed-native replay *)
  minor_words_per_event : float;  (** minor-heap words/event *)
  build_words : float;  (** words allocated (both heaps) building one machine *)
}

type report = {
  processors : int;
  events : int;  (** slots replayed per run (incl. compute) *)
  slab_words : int;  (** live heap words of the packed slabs *)
  rows : scheme_row list;
}

(* engine/events_per_sec: a large jacobi trace replayed on a 64-processor
   machine — the scaling regime the packed hot path targets. The Base
   scheme is the engine-path number (near-zero coherence-model cost, so
   event decode + scheduling overhead dominates); TPI is alongside for
   the end-to-end figure. *)
let measure ?(processors = 64) ?(n = 4096) ?(iters = 4) ?(reps = 3)
    ?(schemes = [ Run.Base; Run.TPI ]) () =
  let cfg = Config.validate { Config.default with processors } in
  let prog = Hscd_workloads.Kernels.jacobi1d ~n ~iters () in
  let c = Run.compile ~cfg ~cache:false prog in
  let p = c.Run.packed_trace in
  let events = p.Trace.n_slots in
  let row kind =
    (* warm up, then average a fixed number of fresh replays *)
    ignore (replay_packed ~cfg kind p);
    let packed_dt = ref 0.0 and packed_words = ref 0.0 and build_words = ref 0.0 in
    for _ = 1 to reps do
      let dt, w, bw = replay_packed ~cfg kind p in
      packed_dt := !packed_dt +. dt;
      packed_words := !packed_words +. w;
      build_words := bw
    done;
    let fre = float_of_int reps and fev = float_of_int events in
    {
      scheme = Run.scheme_name kind;
      packed_eps = fev /. (!packed_dt /. fre);
      minor_words_per_event = !packed_words /. fre /. fev;
      build_words = !build_words;
    }
  in
  {
    processors;
    events;
    slab_words = Trace.packed_slab_words p;
    rows = List.map row schemes;
  }

let print_report (r : report) =
  List.iter
    (fun row ->
      Printf.printf
        "  engine/events_per_sec (%-4s packed)        %12.0f ev/s (P=%d, %d events)\n"
        row.scheme row.packed_eps r.processors r.events;
      Printf.printf "  engine/gc_minor_words_per_event (%-4s)     %12.2f words\n" row.scheme
        row.minor_words_per_event;
      Printf.printf "  machine/build_words (%-4s)                 %12.0f words\n%!" row.scheme
        row.build_words)
    r.rows;
  Printf.printf "  trace/packed_slab_words                    %12d words (%d slots)\n%!"
    r.slab_words r.events

(* --- compile side: trace generation throughput --- *)

(* tracegen/events_per_sec: a marked jacobi program streamed straight
   into the packed slabs, the production generator. *)
type compile_row = {
  gen_events : int;  (** slots generated per run (incl. compute) *)
  gen_eps : float;  (** events/sec *)
  gen_minor_words_per_event : float;  (** minor-heap words/slot *)
  gen_alloc_words_per_event : float;  (** words/slot on both heaps *)
}

let measure_compile ?(processors = 64) ?(n = 4096) ?(iters = 4) ?(reps = 3) () =
  let cfg = Config.validate { Config.default with processors } in
  let prog = Hscd_workloads.Kernels.jacobi1d ~n ~iters () in
  let checked = Hscd_lang.Sema.check_exn prog in
  let m =
    Hscd_compiler.Marking.mark_program
      ~static_sched:(Hscd_sim.Schedule.is_static cfg)
      ~intertask:true checked
  in
  let marked = m.Hscd_compiler.Marking.program in
  let stream () = Trace.of_program_packed ~line_words:cfg.line_words marked in
  (* Generation times are dominated by where the major-GC cycle happens to
     land, which depends on everything that ran earlier in the process (a
     4x swing either way is reproducible). So: compact before every timed
     run to restart the cycle from the same state, and score by the best
     rep — the one the collector disturbed least. Allocation counts are
     deterministic, times are not. *)
  ignore (stream ());
  let sdt = ref infinity and swords = ref 0.0 in
  for _ = 1 to reps do
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (stream ());
    let dt = Unix.gettimeofday () -. t0 in
    swords := Gc.minor_words () -. w0;
    if dt < !sdt then sdt := dt
  done;
  let p, alloc_words = allocated_words stream in
  let fev = float_of_int p.Trace.n_slots in
  {
    gen_events = p.Trace.n_slots;
    gen_eps = fev /. !sdt;
    gen_minor_words_per_event = !swords /. fev;
    gen_alloc_words_per_event = alloc_words /. fev;
  }

let print_compile_row (r : compile_row) =
  Printf.printf "  tracegen/events_per_sec (streaming)        %12.0f ev/s (%d events)\n"
    r.gen_eps r.gen_events;
  Printf.printf "  tracegen/gc_minor_words_per_event (stream) %12.2f words\n"
    r.gen_minor_words_per_event;
  Printf.printf "  tracegen/alloc_words_per_event (stream)    %12.2f words (both heaps)\n%!"
    r.gen_alloc_words_per_event

(* --- compile cache: a sweep over a timing-side knob must generate each
   model's trace exactly once --- *)

type cache_row = {
  cache_generations : int;  (** traces generated across the two sweep points *)
  cache_hits : int;  (** in-memory hits across the second point *)
  cache_ok : bool;  (** second point generated zero new traces *)
}

let measure_cache () =
  let module Common = Hscd_experiments.Common in
  Run.reset_compile_cache ();
  let cfg1 = { Config.default with timetag_bits = 8 } in
  let cfg2 = { Config.default with timetag_bits = 4 } in
  ignore (Common.run_all ~cfg:cfg1 ~schemes:[ Run.TPI ] ~small:true ());
  let g1 = (Run.compile_cache_stats ()).Run.trace_generations in
  ignore (Common.run_all ~cfg:cfg2 ~schemes:[ Run.TPI ] ~small:true ());
  let s = Run.compile_cache_stats () in
  {
    cache_generations = s.Run.trace_generations;
    cache_hits = s.Run.memory_hits;
    cache_ok = s.Run.trace_generations = g1 && g1 > 0;
  }

let print_cache_row (r : cache_row) =
  Printf.printf
    "  tracegen/compile_cache                     %12s (%d generations, %d hits across a \
     2-point timetag sweep)\n%!"
    (if r.cache_ok then "shared" else "NOT SHARED")
    r.cache_generations r.cache_hits

(* compare_all_schemes: the paper's methodology (one trace, every scheme)
   at jobs=1 vs jobs=N — the multicore experiment-runner speedup. Results
   are bit-identical; only the wall clock moves. *)
let compare_wall_clock () =
  let cfg = { Config.default with processors = 16 } in
  let prog = Hscd_workloads.Kernels.jacobi1d ~n:1024 ~iters:4 () in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let _, results = Run.compare ~cfg ~jobs prog in
    (Unix.gettimeofday () -. t0, results)
  in
  let seq, r1 = time 1 in
  let jobs = max 2 (Hscd_util.Pool.default_jobs ()) in
  let par, rn = time jobs in
  let identical =
    List.for_all2
      (fun (a : Run.comparison) (b : Run.comparison) ->
        a.kind = b.kind && a.result = b.result)
      r1 rn
  in
  Printf.printf "  compare_all_schemes jobs=1                 %12.3f s\n" seq;
  Printf.printf
    "  compare_all_schemes jobs=%-2d                %12.3f s (speedup %.2fx, results %s)\n%!"
    jobs par (seq /. par)
    (if identical then "bit-identical" else "DIVERGED")
