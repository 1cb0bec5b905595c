(** p1024-sweep: every scheme on every Perfect Club model on a
    1024-processor machine. The six evaluation-scale traces are compiled
    during set-up, so the timed loop runs no trace generation at all:
    each operation is one whole simulation (machine construction plus
    replay) of one model under one of the seven schemes, and an iteration
    is all 42 cells in a seeded order. At this size machine construction
    and directory fan-out (HW, LimitLESS) weigh most. The results do not
    depend on the seed, only their order does. *)

module Run = Hscd_sim.Run
module Config = Hscd_arch.Config
module Perfect = Hscd_workloads.Perfect
module Prng = Hscd_util.Prng
module R = Report

let run (s : R.settings) ~expected =
  let cfg = Config.validate { Config.default with processors = (if s.smoke then 64 else 1024) } in
  let build (e : Perfect.entry) = if s.smoke then e.build_small () else e.build () in
  let compiled, setup_s =
    Measure.setup ~reps:(if s.smoke then 1 else 5) (fun () ->
        let compiled =
          List.map (fun (e : Perfect.entry) -> (e, Run.compile ~cfg ~cache:false (build e))) Perfect.all
        in
        (* warm-up: every scheme once on the smallest trace *)
        let smallest =
          List.fold_left
            (fun (b : Run.compiled) (_, (c : Run.compiled)) ->
              if c.packed_trace.n_slots < b.packed_trace.n_slots then c else b)
            (snd (List.hd compiled)) compiled
        in
        List.iter (fun k -> ignore (Run.simulate_packed ~cfg k smallest.packed_trace)) Run.extended_schemes;
        compiled)
  in
  let cells =
    Array.of_list
      (List.concat_map (fun (e, c) -> List.map (fun k -> (e, c, k)) Run.extended_schemes) compiled)
  in
  let n_cells = Array.length cells in
  let g = Prng.of_int s.seed in
  let order = Array.init n_cells Fun.id in
  let gc0 = R.gc_now () and stats0 = Run.compile_cache_stats () in
  let first = Hashtbl.create n_cells in
  let accesses = ref 0.0 and bad = ref 0 in
  let lat, wall =
    Measure.loop ~seconds:s.seconds ~min_ops:(R.min_ops s ~batch:n_cells n_cells) ~batch:n_cells
      ~op:(fun i ->
        if i mod n_cells = 0 then Prng.shuffle g order;
        let traced = R.traced_op s ~batch:n_cells i in
        let e, (c : Run.compiled), kind = cells.(order.(i mod n_cells)) in
        let r =
          R.span traced ~op:i "bench.op" (fun () ->
              R.span traced "sim.simulate" (fun () -> Run.simulate_packed ~cfg kind c.packed_trace))
        in
        (e.Perfect.name ^ "/" ^ Run.scheme_name kind, r))
      ~check:(fun _ (key, r) ->
        accesses := !accesses +. float_of_int (Hscd_sim.Metrics.accesses r.metrics);
        (* every iteration must reproduce the first one's results *)
        (match Hashtbl.find_opt first key with
        | None -> Hashtbl.replace first key r
        | Some r0 -> if r0 <> r then incr bad);
        if not (Probe.ok r) then incr bad)
  in
  let gc1 = R.gc_now () and stats1 = Run.compile_cache_stats () in
  let ops = List.length lat in
  let digest = R.combine (Hashtbl.fold (fun key r acc -> (key ^ ":" ^ R.digest_value r) :: acc) first []) in
  let digest_ok = R.digest_ok ~workload:"p1024-sweep" ~expected digest in
  let metrics, probe_failed =
    if not s.traced then (R.end_to_end ~setup_s ~lat ~wall ~accesses:!accesses ~rss_mb:(Measure.peak_rss_mb ()), 0)
    else begin
      let traced_lat, plain_lat = R.split_lat s ~batch:n_cells lat in
      let inputs =
        List.map
          (fun ((e : Perfect.entry), _) ->
            let known =
              List.map (fun k -> (k, Hashtbl.find first (e.name ^ "/" ^ Run.scheme_name k))) Run.extended_schemes
            in
            Probe.input ~label:e.name ~cfg ~known (build e))
          compiled
      in
      let probe_failed, layers = Probe.run inputs in
      let per_op x = float_of_int x /. float_of_int ops in
      ( layers
        @ R.loop_layers ~ops
            ~generations_per_op:(per_op (stats1.trace_generations - stats0.trace_generations))
            ~cache_hits_per_op:(per_op (stats1.memory_hits - stats0.memory_hits))
            ~gc0 ~gc1 ~traced_lat ~plain_lat,
        probe_failed )
    end
  in
  R.outcome ~workload:"p1024-sweep" ~ops ~wall ~digest ~metrics ~extra:[]
    ~failed:(if digest_ok && probe_failed = 0 then !bad else ops)
    ~counts:[ ("cells", ops); ("iterations", ops / n_cells); ("processors", cfg.processors) ]
