(** The compile cache: parameter sweeps must regenerate each reference
    stream exactly once (in memory), and the optional on-disk store must
    round-trip traces across "processes" (simulated here by clearing the
    in-memory table). *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io
module Common = Hscd_experiments.Common
module Kernels = Hscd_workloads.Kernels

(* Every test resets the global cache so counters start from zero and
   entries from other suites (or earlier tests) can't leak in. *)
let with_fresh_cache f =
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir None;
  Fun.protect ~finally:(fun () ->
      Run.reset_compile_cache ();
      Run.set_compile_cache_dir (Sys.getenv_opt "HSCD_COMPILE_CACHE"))
    f

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

let test_disk_cache_roundtrip () =
  with_fresh_cache @@ fun () ->
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hscd_cache_%d" (Unix.getpid ()))
  in
  Run.set_compile_cache_dir (Some dir);
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  let prog = Kernels.reduction ~n:16 () in
  let c1 = Run.compile prog in
  (* fresh process simulated: drop the memory table, keep the disk dir *)
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  let c2 = Run.compile prog in
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "no regeneration" 0 s.Run.trace_generations;
  Alcotest.(check int) "served from disk" 1 s.Run.disk_hits;
  Alcotest.(check bool) "disk trace exact" true
    (Trace_io.equal_packed c1.Run.packed_trace c2.Run.packed_trace);
  Alcotest.(check bool) "replays identically" true
    (Run.simulate_packed Run.TPI c1.Run.packed_trace
    = Run.simulate_packed Run.TPI c2.Run.packed_trace)

let test_disk_cache_survives_corruption () =
  with_fresh_cache @@ fun () ->
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hscd_cache_bad_%d" (Unix.getpid ()))
  in
  Run.set_compile_cache_dir (Some dir);
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  let prog = Kernels.reduction ~n:16 () in
  let c1 = Run.compile prog in
  (* clobber every stored trace, then force a re-read from disk *)
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "HSCDTRC3garbage";
      close_out oc)
    (Sys.readdir dir);
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  let c2 = Run.compile prog in
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "corrupt entry regenerated, not trusted" 1 s.Run.trace_generations;
  Alcotest.(check bool) "regenerated trace exact" true
    (Trace_io.equal_packed c1.Run.packed_trace c2.Run.packed_trace)

let test_disk_cache_bitflip_and_truncation () =
  with_fresh_cache @@ fun () ->
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hscd_cache_flip_%d" (Unix.getpid ()))
  in
  Run.set_compile_cache_dir (Some dir);
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  let prog = Kernels.reduction ~n:16 () in
  let c1 = Run.compile prog in
  let entry = Filename.concat dir (Sys.readdir dir).(0) in
  (* a single flipped bit mid-file: the checksum must catch it and the
     trace must be silently regenerated (no exception, no stale data) *)
  Hscd_check.Fault.Chaos.corrupt_file entry ~byte:((Unix.stat entry).Unix.st_size / 2);
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  let c2 = Run.compile prog in
  Alcotest.(check int) "bit flip regenerated" 1
    (Run.compile_cache_stats ()).Run.trace_generations;
  Alcotest.(check bool) "bit flip: regenerated exact" true
    (Trace_io.equal_packed c1.Run.packed_trace c2.Run.packed_trace);
  (* regeneration rewrote the entry: a fresh "process" hits disk again *)
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  ignore (Run.compile prog);
  Alcotest.(check int) "rewritten entry serves from disk" 1
    (Run.compile_cache_stats ()).Run.disk_hits;
  (* kill-mid-write truncation on the rewritten entry *)
  Hscd_check.Fault.Chaos.truncate_file entry ~drop:32;
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  let c3 = Run.compile prog in
  Alcotest.(check int) "truncation regenerated" 1
    (Run.compile_cache_stats ()).Run.trace_generations;
  Alcotest.(check bool) "truncation: regenerated exact" true
    (Trace_io.equal_packed c1.Run.packed_trace c3.Run.packed_trace)

let test_disk_cache_concurrent_writers () =
  with_fresh_cache @@ fun () ->
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hscd_cache_race_%d" (Unix.getpid ()))
  in
  Run.set_compile_cache_dir (Some dir);
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  (* four domains compile the same key at once: all miss the (empty)
     memory table, all generate, and all race the disk store. The
     writer-unique tmp + atomic rename must leave exactly one complete
     entry, never an interleaving of two writers. *)
  let prog = Kernels.reduction ~n:16 () in
  let reference = Run.compile ~cache:false prog in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> ignore (Run.compile prog)))
  in
  List.iter Domain.join domains;
  let entries = Sys.readdir dir in
  Alcotest.(check bool) "exactly one entry, no stray tmp files" true
    (Array.length entries = 1 && not (Filename.check_suffix entries.(0) ".tmp"));
  (* whatever interleaving happened, the surviving entry must be valid *)
  Run.reset_compile_cache ();
  Run.set_compile_cache_dir (Some dir);
  let c = Run.compile prog in
  let s = Run.compile_cache_stats () in
  Alcotest.(check int) "entry readable after the race" 1 s.Run.disk_hits;
  Alcotest.(check bool) "entry exact after the race" true
    (Trace_io.equal_packed reference.Run.packed_trace c.Run.packed_trace)

let suite =
  [
    Alcotest.test_case "memory hit shares artifact" `Quick test_memory_hit;
    Alcotest.test_case "timing knobs share one entry" `Quick test_timing_knobs_share_entry;
    Alcotest.test_case "trace-relevant knobs split entries" `Quick test_trace_knobs_split_entry;
    Alcotest.test_case "cache:false bypasses" `Quick test_cache_off;
    Alcotest.test_case "run_all sweep compiles each model once" `Slow
      test_run_all_sweep_compiles_once;
    Alcotest.test_case "disk cache round-trip" `Quick test_disk_cache_roundtrip;
    Alcotest.test_case "disk cache rejects corrupt entries" `Quick
      test_disk_cache_survives_corruption;
    Alcotest.test_case "disk cache: bit flip and truncation regenerated" `Quick
      test_disk_cache_bitflip_and_truncation;
    Alcotest.test_case "disk cache: concurrent same-key writers" `Quick
      test_disk_cache_concurrent_writers;
  ]
