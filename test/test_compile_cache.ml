(** The compile cache: parameter sweeps must regenerate each reference
    stream exactly once, in memory. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Common = Hscd_experiments.Common
module Kernels = Hscd_workloads.Kernels

(* Every test resets the global cache so counters start from zero and
   entries from other suites (or earlier tests) can't leak in. *)
let with_fresh_cache f =
  Run.reset_compile_cache ();
  Fun.protect ~finally:Run.reset_compile_cache f

let test_memory_hit () =
  with_fresh_cache @@ fun () ->
  let prog = Kernels.jacobi1d ~n:32 ~iters:2 () in
  let c1 = Run.compile prog in
  let c2 = Run.compile prog in
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "one generation" 1 s.Run.trace_generations;
  Alcotest.(check int) "one memory hit" 1 s.Run.memory_hits;
  Alcotest.(check bool) "hit shares the compiled artifact" true (c1 == c2)

let test_timing_knobs_share_entry () =
  with_fresh_cache @@ fun () ->
  let prog = Kernels.jacobi1d ~n:32 ~iters:2 () in
  (* processors, timetag bits, cache size: all timing-side — one entry *)
  let cfgs =
    [
      Config.default;
      { Config.default with processors = 64 };
      { Config.default with timetag_bits = 4 };
      { Config.default with cache_bytes = Config.default.cache_bytes / 2 };
    ]
  in
  List.iter (fun cfg -> ignore (Run.compile ~cfg prog)) cfgs;
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "one generation across the sweep" 1 s.Run.trace_generations;
  Alcotest.(check int) "rest are hits" (List.length cfgs - 1) s.Run.memory_hits

let test_trace_knobs_split_entry () =
  with_fresh_cache @@ fun () ->
  let prog = Kernels.jacobi1d ~n:32 ~iters:2 () in
  ignore (Run.compile prog);
  (* line size reaches the address map; scheduling staticness and the
     marking flags reach the marked program — all must miss *)
  ignore (Run.compile ~cfg:{ Config.default with line_words = 8 } prog);
  ignore (Run.compile ~cfg:{ Config.default with scheduling = Config.Dynamic } prog);
  ignore (Run.compile ~intertask:false prog);
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "four distinct entries" 4 s.Run.trace_generations;
  Alcotest.(check int) "no spurious hits" 0 s.Run.memory_hits

let test_cache_off () =
  with_fresh_cache @@ fun () ->
  let prog = Kernels.jacobi1d ~n:32 ~iters:2 () in
  ignore (Run.compile ~cache:false prog);
  ignore (Run.compile ~cache:false prog);
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "both generated" 2 s.Run.trace_generations;
  Alcotest.(check int) "no hits" 0 s.Run.memory_hits

let test_run_all_sweep_compiles_once () =
  with_fresh_cache @@ fun () ->
  (* the acceptance check: a two-point sweep over a timing knob evaluates
     each Perfect Club model exactly once *)
  ignore (Common.run_all ~cfg:{ Config.default with timetag_bits = 8 } ~schemes:[ Run.TPI ]
            ~small:true ());
  let g1 = (Run.compile_cache_stats ()).Run.trace_generations in
  Alcotest.(check int) "six models generated" 6 g1;
  ignore (Common.run_all ~cfg:{ Config.default with timetag_bits = 4 } ~schemes:[ Run.TPI ]
            ~small:true ());
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "second sweep point generated nothing" g1 s.Run.trace_generations;
  Alcotest.(check int) "six memory hits" 6 s.Run.memory_hits

(* [experiment all]'s compile sequence over the six full-scale Perfect
   models: four trace variants, of which only the default one and the
   last one come back. Least-recently-used eviction keeps the default
   set resident across the other three, so each trace is generated once;
   first-in-first-out eviction would drop the default set and regenerate
   it. *)
let test_lru_keeps_reused_variant () =
  with_fresh_cache @@ fun () ->
  let models = List.map (fun (e : Hscd_workloads.Perfect.entry) -> e.build ()) Hscd_workloads.Perfect.all in
  let default = (Config.default, true)
  and lw16 = ({ Config.default with line_words = 16 }, true)
  and no_intertask = (Config.default, false)
  and dynamic = ({ Config.default with scheduling = Config.Dynamic }, true) in
  let compile_all (cfg, intertask) =
    let cs = List.map (Run.compile ~cfg ~intertask) models in
    let s = Run.compile_cache_stats () in
    Alcotest.(check bool)
      (Printf.sprintf "%d bytes held within the budget" s.Run.held_bytes)
      true
      (s.Run.held_bytes <= Run.compile_cache_budget_bytes);
    cs
  in
  let first = compile_all default in
  let last =
    List.fold_left
      (fun _ v -> compile_all v)
      first
      [ lw16; default; no_intertask; default; dynamic; default ]
  in
  ignore (compile_all dynamic);
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "each variant generated once" 24 s.Run.trace_generations;
  Alcotest.(check int) "every repeat a hit" 24 s.Run.memory_hits;
  Alcotest.(check bool) "the other variants were evicted" true (s.Run.evictions > 0);
  Alcotest.(check bool) "the default variant's last hit is its first compile" true
    (List.for_all2 ( == ) first last)

(* one entry larger than the whole budget is still cached, alone *)
let test_oversized_entry_kept () =
  with_fresh_cache @@ fun () ->
  let small = Kernels.jacobi1d ~n:1024 ~iters:1 () in
  ignore (Run.compile small);
  let held = (Run.compile_cache_stats ()).Run.held_bytes in
  (* the trace grows with [n]: this one weighs more than the budget *)
  let big = Kernels.jacobi1d ~n:(1024 * ((Run.compile_cache_budget_bytes / held) + 2)) ~iters:1 () in
  let c = Run.compile big in
  let s = Run.compile_cache_stats () in
  Alcotest.(check bool) "over the budget" true (s.Run.held_bytes > Run.compile_cache_budget_bytes);
  Alcotest.(check int) "the small entry evicted" 1 s.Run.evictions;
  Alcotest.(check bool) "the big entry hits" true (Run.compile big == c);
  ignore (Run.compile small);
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "the next insert evicts it" 2 s.Run.evictions;
  Alcotest.(check int) "the small entry alone" held s.Run.held_bytes;
  Alcotest.(check int) "three generations" 3 s.Run.trace_generations

(* the on-disk store is gone; its setter stays for one caller that
   passes [None] *)
let test_no_disk_cache () =
  Run.set_compile_cache_dir None;
  match Run.set_compile_cache_dir (Some (Filename.get_temp_dir_name ())) with
  | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Usage; _ } -> ()
  | exception e -> Alcotest.fail ("expected a Usage error, got " ^ Printexc.to_string e)
  | () -> Alcotest.fail "a cache directory was accepted"

let suite =
  [
    Alcotest.test_case "memory hit shares artifact" `Quick test_memory_hit;
    Alcotest.test_case "timing knobs share one entry" `Quick test_timing_knobs_share_entry;
    Alcotest.test_case "trace-relevant knobs split entries" `Quick test_trace_knobs_split_entry;
    Alcotest.test_case "cache:false bypasses" `Quick test_cache_off;
    Alcotest.test_case "run_all sweep compiles each model once" `Slow
      test_run_all_sweep_compiles_once;
    Alcotest.test_case "LRU keeps experiment all's reused variant" `Quick
      test_lru_keeps_reused_variant;
    Alcotest.test_case "an entry over the budget is kept alone" `Quick test_oversized_entry_kept;
    Alcotest.test_case "no on-disk cache directory" `Quick test_no_disk_cache;
  ]
