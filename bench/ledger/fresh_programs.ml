(** fresh-programs: the interactive [hscd sim] path on programs the
    compile cache has never seen. Each operation takes one PFL source text
    — a Perfect Club model or a kernel at a seeded size between its test
    and evaluation scale — parses it, compiles it without the cache and
    replays it under TPI on 16 processors. One caller, closed loop. The
    front end and trace generation weigh most here; machine construction
    at P=16 is negligible. *)

module Run = Hscd_sim.Run
module Config = Hscd_arch.Config
module Prng = Hscd_util.Prng
module W = Hscd_workloads
module R = Report

(* One generator per model or kernel, drawing its size from the seed. The
   operation order cycles through them, so any whole number of rounds
   has the same mix whatever the seed. *)
let generators : (Prng.t -> Hscd_lang.Ast.program) array =
  let r = Prng.in_range in
  [|
    (fun g -> W.Trfd.build ~n:(r g 10 24) ~passes:(r g 1 2) ());
    (fun g -> W.Flo52.build ~n:(4 * r g 4 12) ~cycles:(r g 1 3) ());
    (fun g -> W.Ocean.build ~n:(r g 16 48) ~steps:(r g 1 4) ());
    (fun g -> W.Qcd2.build ~sites:(r g 32 192) ~sweeps:(r g 1 3) ());
    (fun g -> W.Spec77.build ~n:(Prng.choose g [| 64; 128; 256 |]) ~steps:(r g 1 2) ());
    (fun g -> W.Arc2d.build ~n:(r g 16 40) ~steps:(r g 1 3) ());
    (fun g -> W.Kernels.jacobi1d ~n:(r g 64 256) ~iters:(r g 2 10) ());
    (fun g -> W.Kernels.matmul ~n:(r g 8 24) ());
    (fun g -> W.Kernels.reduction ~n:(r g 32 128) ());
    (fun g -> W.Kernels.transpose ~n:(r g 8 32) ());
    (fun g -> W.Kernels.gather ~n:(r g 32 128) ~iters:(r g 1 4) ());
    (fun g -> W.Kernels.procedural ~n:(r g 32 128) ~iters:(r g 1 4) ());
    (fun g -> W.Kernels.boundary_exchange ~n:(16 * r g 4 16) ~iters:(r g 2 8) ());
    (fun g -> W.Kernels.redblack ~n:(r g 64 256) ~iters:(r g 2 6) ());
    (fun g -> W.Kernels.prefix_scan ~n:(r g 32 128) ());
  |]

let round = Array.length generators

(* test-scale stand-ins for the smoke run *)
let smoke_generators =
  Array.map (fun (_, b) _ -> b ()) (Array.of_list W.Kernels.all)
  |> Array.append (Array.of_list (List.map (fun (e : W.Perfect.entry) _ -> e.build_small ()) W.Perfect.all))

let programs ~smoke ~seed n =
  let g = Prng.of_int seed in
  let bs = if smoke then smoke_generators else generators in
  Array.init n (fun i ->
      let p = bs.(i mod round) g in
      (p, Hscd_lang.Printer.program_to_string p))

let cfg = Config.default

(** Source text to result: the operation a user waits for. *)
let op ~traced text =
  let program = R.span traced "lang.parse" (fun () -> Hscd_lang.Parser.parse_program text) in
  let c = R.span traced "sim.compile" (fun () -> Run.compile ~cfg ~cache:false program) in
  R.span traced "sim.simulate" (fun () -> Run.simulate_packed ~cfg Run.TPI c.Run.packed_trace)

let run (s : R.settings) ~expected =
  let n_programs = if s.smoke then round else 5000 in
  let digest_ops = if s.smoke then round else 10 * round in
  let probe_ops = if s.smoke then round else 2 * round in
  let inputs, setup_s =
    Measure.setup ~reps:(if s.smoke then 1 else 5) (fun () ->
        let ps = programs ~smoke:s.smoke ~seed:s.seed n_programs in
        (* warm-up: one fixed round of programs, the same for every seed *)
        Array.iter (fun (_, text) -> ignore (op ~traced:false text)) (programs ~smoke:s.smoke ~seed:0 round);
        ps)
  in
  let gc0 = R.gc_now () and stats0 = Run.compile_cache_stats () in
  let digests = ref [] and known = ref [] and accesses = ref 0.0 and bad = ref 0 in
  let lat, wall =
    Measure.loop ~seconds:s.seconds ~min_ops:(R.min_ops s ~batch:round digest_ops) ~batch:round
      ~op:(fun i ->
        let traced = R.traced_op s ~batch:round i in
        R.span traced ~op:i "bench.op" (fun () -> op ~traced (snd inputs.(i mod n_programs))))
      ~check:(fun i r ->
        accesses := !accesses +. float_of_int (Hscd_sim.Metrics.accesses r.metrics);
        if not (Probe.ok r) then incr bad;
        if i < digest_ops then digests := R.digest_value r :: !digests;
        if i < probe_ops then known := (i, r) :: !known)
  in
  let gc1 = R.gc_now () and stats1 = Run.compile_cache_stats () in
  let ops = List.length lat in
  let digest = R.combine !digests in
  let digest_ok = R.digest_ok ~workload:"fresh-programs" ~expected digest in
  let metrics, probe_failed =
    if not s.traced then (R.end_to_end ~setup_s ~lat ~wall ~accesses:!accesses ~rss_mb:(Measure.peak_rss_mb ()), 0)
    else begin
      let traced_lat, plain_lat = R.split_lat s ~batch:round lat in
      let probe_inputs =
        List.rev_map
          (fun (i, r) ->
            Probe.input ~label:(Printf.sprintf "program %d" i) ~cfg ~known:[ (Run.TPI, r) ] (fst inputs.(i)))
          !known
      in
      let probe_failed, layers = Probe.run probe_inputs in
      let per_op x = float_of_int x /. float_of_int ops in
      ( layers
        @ R.loop_layers ~ops
            ~generations_per_op:(per_op (stats1.trace_generations - stats0.trace_generations))
            ~cache_hits_per_op:(per_op (stats1.memory_hits - stats0.memory_hits))
            ~gc0 ~gc1 ~traced_lat ~plain_lat,
        probe_failed )
    end
  in
  R.outcome ~workload:"fresh-programs" ~ops ~wall ~digest ~metrics ~extra:[]
    ~failed:(if digest_ok && probe_failed = 0 then !bad else ops)
    ~counts:[ ("programs", ops); ("inputs", n_programs); ("digest_ops", digest_ops) ]
