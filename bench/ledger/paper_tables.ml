(** paper-tables: regenerate every table of the paper's evaluation, as
    [hscd experiment all] does, at full scale on one domain. The compile
    cache and the experiment memo are emptied before each regeneration,
    because a user pays for both on every run. Replay dominates; each
    regeneration also shares 24 trace generations across its timing
    knobs. Independent of the seed. *)

module Run = Hscd_sim.Run
module Config = Hscd_arch.Config
module Common = Hscd_experiments.Common
module Experiments = Hscd_experiments.Experiments
module Perfect = Hscd_workloads.Perfect
module R = Report

let regenerate ~small ~traced =
  Run.reset_compile_cache ();
  Hashtbl.reset Common.cache;
  List.concat_map
    (fun (e : Experiments.t) -> R.span traced ("experiments." ^ e.id) (fun () -> e.run ~small ~jobs:1 ()))
    Experiments.all

(* every simulation of the regeneration sits in the memo *)
let simulated () =
  Hashtbl.fold
    (fun _ results (accesses, ok) ->
      List.fold_left
        (fun (a, ok) (r : Common.bench_result) ->
          List.fold_left
            (fun (a, ok) (_, (e : Hscd_sim.Engine.result)) ->
              (a +. float_of_int (Hscd_sim.Metrics.accesses e.metrics), ok && Probe.ok e))
            (a, ok) r.by_scheme)
        (accesses, ok) results)
    Common.cache (0.0, true)

let run (s : R.settings) ~expected =
  let small = s.smoke in
  let (), setup_s =
    Measure.setup ~reps:(if s.smoke then 1 else 5) (fun () -> ignore (regenerate ~small:true ~traced:false))
  in
  let gc0 = R.gc_now () in
  let digests = ref [] and accesses = ref 0.0 and bad = ref 0 in
  let lat, wall =
    Measure.loop ~seconds:s.seconds ~min_ops:(R.min_ops s ~batch:1 1) ~batch:1
      ~op:(fun i ->
        let traced = R.traced_op s ~batch:1 i in
        R.span traced ~op:i "bench.op" (fun () -> regenerate ~small ~traced))
      ~check:(fun _ tables ->
        let a, ok = simulated () in
        accesses := !accesses +. a;
        if not ok then incr bad;
        digests :=
          Digest.to_hex (Digest.string (String.concat "\n" (List.map Hscd_util.Table.render tables)))
          :: !digests)
  in
  let gc1 = R.gc_now () in
  let ops = List.length lat in
  let digest = List.hd !digests in
  let consistent = List.for_all (( = ) digest) !digests in
  let digest_ok = R.digest_ok ~workload:"paper-tables" ~expected digest in
  let metrics, extra, probe_failed =
    if not s.traced then
      (R.end_to_end ~setup_s ~lat ~wall ~accesses:!accesses ~rss_mb:(Measure.peak_rss_mb ()), [], 0)
    else begin
      let stats = Run.compile_cache_stats () in
      let traced_lat, plain_lat = R.split_lat s ~batch:1 lat in
      (* the last regeneration's memo holds the default-machine grid *)
      let grid = Common.run_all ~small ~jobs:1 () in
      let inputs =
        List.map
          (fun (e : Perfect.entry) ->
            let r = List.find (fun (b : Common.bench_result) -> b.bench = e.name) grid in
            Probe.input ~label:e.name ~cfg:Config.default ~known:r.by_scheme
              (if small then e.build_small () else e.build ()))
          Perfect.all
      in
      let probe_failed, layers = Probe.run inputs in
      let per_experiment =
        List.map
          (fun (e : Experiments.t) ->
            let spans = Span.named ("experiments." ^ e.id) in
            R.m ("experiments." ^ e.id ^ "_s") (Hscd_util.Stats.mean (List.map Span.duration spans)) "s")
          Experiments.all
      in
      ( layers
        @ R.loop_layers ~ops
            (* counts since the last regeneration emptied the cache *)
            ~generations_per_op:(float_of_int stats.trace_generations)
            ~cache_hits_per_op:(float_of_int stats.memory_hits) ~gc0 ~gc1 ~traced_lat ~plain_lat,
        per_experiment,
        probe_failed )
    end
  in
  R.outcome ~workload:"paper-tables" ~ops ~wall ~digest ~metrics ~extra
    ~failed:(if consistent && digest_ok && probe_failed = 0 then !bad else ops)
    ~counts:[ ("regenerations", ops); ("experiments", List.length Experiments.all) ]
