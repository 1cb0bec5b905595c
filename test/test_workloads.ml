(** Tests for the workload suite: every kernel and benchmark model must be
    sema-clean, race-free, deterministic, and coherent under every scheme
    at test scale. *)

module Sema = Hscd_lang.Sema
module Eval = Hscd_lang.Eval
module Run = Hscd_sim.Run
module Metrics = Hscd_sim.Metrics
module Kernels = Hscd_workloads.Kernels
module Perfect = Hscd_workloads.Perfect
module Programs = Hscd_workloads.Programs

let test_kernels_sema_clean () =
  List.iter
    (fun (name, build) ->
      match Sema.check (build ()) with
      | _, issues ->
        Alcotest.(check (list string)) (name ^ " errors") []
          (List.map (fun (i : Sema.issue) -> i.message) (Sema.errors issues)))
    Kernels.all

let test_kernels_race_free_and_deterministic () =
  List.iter
    (fun (name, build) ->
      let p = Sema.check_exn (build ()) in
      let r1 = Eval.run p and r2 = Eval.run p in
      Alcotest.(check bool) (name ^ " deterministic") true
        (r1.Eval.final_memory = r2.Eval.final_memory))
    Kernels.all

let test_benchmarks_sema_clean () =
  List.iter
    (fun (e : Perfect.entry) ->
      ignore (Sema.check_exn (e.build_small ()));
      ignore (Sema.check_exn (e.build ())))
    Perfect.all

let test_benchmarks_coherent_small () =
  let cfg = { Hscd_arch.Config.default with processors = 8 } in
  List.iter
    (fun (e : Perfect.entry) ->
      let _, results = Run.compare ~cfg (e.build_small ()) in
      List.iter
        (fun (r : Run.comparison) ->
          Alcotest.(check int)
            (e.name ^ "/" ^ Run.scheme_name r.kind ^ " violations")
            0 r.result.metrics.violations;
          Alcotest.(check bool)
            (e.name ^ "/" ^ Run.scheme_name r.kind ^ " memory")
            true r.result.memory_ok)
        results)
    Perfect.all

let test_benchmark_characters () =
  (* each model must exhibit the sharing behaviour it was built for *)
  let cfg = Hscd_arch.Config.default in
  let miss name kind =
    let e = Option.get (Perfect.find name) in
    let _, r = Run.run_source ~cfg kind (e.build_small ()) in
    Alcotest.(check int) (name ^ " coherent") 0 r.metrics.violations;
    r.metrics
  in
  (* QCD2's blackbox subscripts leave TPI with elevated misses *)
  let qcd_tpi = miss "QCD2" Run.TPI in
  let flo_tpi = miss "FLO52" Run.TPI in
  Alcotest.(check bool) "QCD2 misses more than FLO52 under TPI" true
    (Metrics.miss_rate qcd_tpi > Metrics.miss_rate flo_tpi);
  (* ARC2D's column sweeps produce false sharing under HW *)
  let arc_hw = miss "ARC2D" Run.HW in
  Alcotest.(check bool) "ARC2D false sharing present" true
    (Metrics.class_count arc_hw Hscd_coherence.Scheme.False_sharing > 0);
  (* TRFD's accumulations produce redundant write traffic: a write cache
     removes a large share of it *)
  let e = Option.get (Perfect.find "TRFD") in
  let plain = (snd (Run.run_source ~cfg Run.TPI (e.build_small ()))).metrics.traffic in
  let wc_cfg = { cfg with write_buffer = Hscd_arch.Config.Write_cache 16 } in
  let wcache = (snd (Run.run_source ~cfg:wc_cfg Run.TPI (e.build_small ()))).metrics.traffic in
  Alcotest.(check bool) "write cache cuts TRFD write traffic" true
    (wcache.writes * 2 < plain.writes)

let test_registry () =
  Alcotest.(check int) "six benchmarks" 6 (List.length Perfect.all);
  Alcotest.(check bool) "find is case-insensitive" true (Perfect.find "ocean" <> None);
  Alcotest.(check bool) "unknown" true (Perfect.find "nope" = None);
  Alcotest.(check (list string)) "names"
    [ "TRFD"; "FLO52"; "OCEAN"; "QCD2"; "SPEC77"; "ARC2D" ] Perfect.names

let test_kernel_results () =
  (* golden outputs of a few kernels, as concrete value checks *)
  let r = Eval.run (Sema.check_exn (Kernels.matmul ~n:4 ())) in
  (* c = a*b with a(i,j)=i+j, b(i,j)=i-j: c(0,0) = sum_k k*k = 14 *)
  Alcotest.(check int) "matmul c00" 14 (Eval.peek r "mc" [ 0; 0 ]);
  let r = Eval.run (Sema.check_exn (Kernels.transpose ~n:8 ())) in
  Alcotest.(check int) "transpose" (Eval.peek r "m" [ 2; 5 ]) (Eval.peek r "mt" [ 5; 2 ])

let test_program_resolver () =
  let built ?(small = false) name = Option.map (fun b -> b ()) (Programs.find ~small name) in
  List.iter
    (fun name ->
      let expected = built name in
      Alcotest.(check bool) (name ^ " resolves") true (expected <> None);
      List.iter
        (fun n -> Alcotest.(check bool) (n ^ " resolves to " ^ name) true (built n = expected))
        [ String.uppercase_ascii name; String.lowercase_ascii name ])
    Programs.names;
  Alcotest.(check int) "every Perfect model and kernel"
    (List.length Perfect.names + List.length Kernels.all)
    (List.length Programs.names);
  Alcotest.(check bool) "small picks the test scale" true
    (built ~small:true "ocean" = Some ((Option.get (Perfect.find "OCEAN")).build_small ()));
  Alcotest.(check bool) "unknown" true (Programs.find "nope" = None)

let suite =
  [
    Alcotest.test_case "kernels sema-clean" `Quick test_kernels_sema_clean;
    Alcotest.test_case "kernels deterministic" `Quick test_kernels_race_free_and_deterministic;
    Alcotest.test_case "benchmarks sema-clean" `Quick test_benchmarks_sema_clean;
    Alcotest.test_case "benchmarks coherent (small)" `Quick test_benchmarks_coherent_small;
    Alcotest.test_case "benchmark characters" `Quick test_benchmark_characters;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "kernel golden values" `Quick test_kernel_results;
    Alcotest.test_case "program names resolve in any case" `Quick test_program_resolver;
  ]
