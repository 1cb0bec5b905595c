(* Aggregated alcotest runner for all suites. *)
let () =
  Alcotest.run "hscd"
    [
      ("util", Test_util.suite);
      ("checksum", Test_checksum.suite);
      ("lang", Test_lang.suite);
      ("eval", Test_eval.suite);
      ("oracle", Test_oracle.suite);
      ("sections", Test_sections.suite);
      ("compiler", Test_compiler.suite);
      ("marking", Test_marking.suite);
      ("cache-net", Test_cache_net.suite);
      ("coherence", Test_coherence.suite);
      ("engine", Test_engine.suite);
      ("parallel", Test_parallel.suite);
      ("supervised", Test_supervised.suite);
      ("random", Test_random.suite);
      ("extensions", Test_extensions.suite);
      ("stats-report", Test_stats_report.suite);
      ("hw-invariants", Test_hw_invariants.suite);
      ("trace-io", Test_trace_io.suite);
      ("packed", Test_packed.suite);
      ("fuzz", Test_fuzz.suite);
      ("monitor", Test_monitor.suite);
      ("mc", Test_mc.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("workloads", Test_workloads.suite);
      ("compile-cache", Test_compile_cache.suite);
      ("experiments", Test_experiments.suite);
      ("service", Test_service.suite);
      ("core", [ Alcotest.test_case "facade placeholder" `Quick (fun () -> Core.placeholder ()) ]);
    ]
