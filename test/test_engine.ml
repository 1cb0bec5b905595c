(** Tests of the timing engine and the end-to-end Run pipeline: barriers,
    lock ordering, scheduling policies, and — crucially — that the golden
    value checker actually catches unsafe compiler marks. *)

module Ast = Hscd_lang.Ast
module Sema = Hscd_lang.Sema
module B = Hscd_lang.Builder
module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Metrics = Hscd_sim.Metrics
module Engine = Hscd_sim.Engine

let cfg4 = { Config.default with processors = 4 }

let stencil = Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:3 ()

let test_all_schemes_coherent () =
  let _, results = Run.compare ~cfg:cfg4 stencil in
  List.iter
    (fun (r : Run.comparison) ->
      Alcotest.(check int)
        (Run.scheme_name r.kind ^ " violations") 0 r.result.metrics.violations;
      Alcotest.(check bool) (Run.scheme_name r.kind ^ " memory") true r.result.memory_ok)
    results

let test_base_miss_rate_is_total () =
  let _, r = Run.run_source ~cfg:cfg4 Run.Base stencil in
  Alcotest.(check (float 1e-9)) "all remote" 1.0 (Metrics.miss_rate r.metrics)

let test_trace_shape () =
  let c = Run.compile ~cfg:cfg4 stencil in
  Alcotest.(check int) "epochs" (2 * 3 * 2 + 3) (Trace.packed_n_epochs c.packed_trace);
  Alcotest.(check int) "parallel epochs" 7 (Trace.packed_n_parallel_epochs c.packed_trace);
  let reads, writes = Trace.packed_access_counts c.packed_trace in
  Alcotest.(check bool) "counts positive" true (reads > 0 && writes > 0)

let test_unsafe_mark_is_caught () =
  (* hand-mark a stale read with an over-generous distance: the stencil
     reads a[i] written two boundaries ago but we claim d=9 after caching
     it before the write; the checker must flag violations under TPI *)
  let p =
    B.program
      [ B.array "a" [ 32 ]; B.array "b" [ 32 ] ]
      [
        B.proc "main" []
          [
            (* epoch P1: cache a[i] everywhere (reads) *)
            B.doall "i" (B.int 0) (B.int 31)
              [ B.s1 "b" (B.var "i") (Ast.Aref ("a", [ B.var "i" ], Ast.Normal_read)) ];
            (* epoch P2: another processor rewrites a *)
            B.doall "i" (B.int 0) (B.int 31)
              [ Ast.Store ("a", [ B.(int 31 %- var "i") ], B.int 7, Ast.Normal_write) ];
            (* epoch P3: read with a deliberately unsafe Time-Read(9) *)
            B.doall "i" (B.int 0) (B.int 31)
              [ B.s1 "b" (B.var "i") (Ast.Aref ("a", [ B.var "i" ], Ast.Time_read 9)) ];
          ];
      ]
  in
  let p = Sema.check_exn p in
  let trace = Trace.of_program p in
  let r = Run.simulate ~cfg:cfg4 Run.TPI trace in
  Alcotest.(check bool) "violations detected" true (r.metrics.violations > 0)

let test_safe_manual_marks_pass () =
  (* same program with the correct d=1 mark: no violations *)
  let p =
    B.program
      [ B.array "a" [ 32 ]; B.array "b" [ 32 ] ]
      [
        B.proc "main" []
          [
            B.doall "i" (B.int 0) (B.int 31)
              [ B.s1 "b" (B.var "i") (Ast.Aref ("a", [ B.var "i" ], Ast.Normal_read)) ];
            B.doall "i" (B.int 0) (B.int 31)
              [ Ast.Store ("a", [ B.(int 31 %- var "i") ], B.int 7, Ast.Normal_write) ];
            B.doall "i" (B.int 0) (B.int 31)
              [ B.s1 "b" (B.var "i") (Ast.Aref ("a", [ B.var "i" ], Ast.Time_read 1)) ];
          ];
      ]
  in
  let p = Sema.check_exn p in
  let r = Run.simulate ~cfg:cfg4 Run.TPI (Trace.of_program p) in
  Alcotest.(check int) "no violations" 0 r.metrics.violations

let test_scheduling_policies_coherent () =
  List.iter
    (fun scheduling ->
      let cfg = { cfg4 with scheduling } in
      let c, results = Run.compare ~cfg stencil in
      ignore c;
      List.iter
        (fun (r : Run.comparison) ->
          Alcotest.(check int)
            (Config.scheduling_name scheduling ^ "/" ^ Run.scheme_name r.kind)
            0 r.result.metrics.violations)
        results)
    [ Config.Block; Config.Cyclic; Config.Dynamic ]

let test_dynamic_slower_or_equal_misses () =
  (* self-scheduling destroys owner alignment: TPI misses cannot decrease *)
  let block = Run.compare ~cfg:{ cfg4 with scheduling = Config.Block } stencil in
  let dyn = Run.compare ~cfg:{ cfg4 with scheduling = Config.Dynamic } stencil in
  let miss results kind =
    Metrics.miss_rate
      (List.find (fun (r : Run.comparison) -> r.kind = kind) (snd results)).result.metrics
  in
  Alcotest.(check bool) "dynamic >= block for TPI" true
    (miss dyn Run.TPI >= miss block Run.TPI)

let test_locks_serialize () =
  let p = Hscd_workloads.Kernels.reduction ~n:32 () in
  let c, results = Run.compare ~cfg:cfg4 p in
  ignore c;
  List.iter
    (fun (r : Run.comparison) ->
      Alcotest.(check int) (Run.scheme_name r.kind ^ " coherent") 0 r.result.metrics.violations;
      Alcotest.(check bool) (Run.scheme_name r.kind ^ " memory") true r.result.memory_ok;
      Alcotest.(check int) "32 lock acquisitions" 32 r.result.metrics.lock_acquires)
    results

let test_barrier_accounting () =
  let c = Run.compile ~cfg:cfg4 stencil in
  let r = Run.simulate_packed ~cfg:cfg4 Run.TPI c.packed_trace in
  let epochs = Trace.packed_n_epochs c.packed_trace in
  Alcotest.(check int) "one barrier per epoch" epochs r.metrics.barriers;
  Alcotest.(check bool) "cycles at least barrier cost" true
    (r.cycles >= epochs * cfg4.barrier_cycles)

let test_more_processors_not_slower () =
  let run p_count =
    let cfg = { Config.default with processors = p_count } in
    (snd (Run.run_source ~cfg Run.TPI (Hscd_workloads.Kernels.jacobi1d ~n:256 ~iters:4 ()))).cycles
  in
  let c1 = run 1 and c16 = run 16 in
  Alcotest.(check bool) "parallel speedup" true (c16 < c1)

let test_timetag_width_monotone () =
  (* smaller tags cannot reduce TPI misses *)
  let miss bits =
    let cfg = { Config.default with timetag_bits = bits } in
    let _, r = Run.run_source ~cfg Run.TPI (Hscd_workloads.Kernels.jacobi1d ~n:128 ~iters:20 ()) in
    Alcotest.(check int) "coherent" 0 r.metrics.violations;
    Metrics.read_misses r.metrics
  in
  let m2 = miss 2 and m8 = miss 8 in
  Alcotest.(check bool) "2-bit tags miss at least as much" true (m2 >= m8)

(* --- ready-queue behavior: hand-built traces straight into the engine --- *)

module Event = Hscd_arch.Event

(* a trace with the given parallel-epoch tasks over one 8-word array;
   [golden] lists (addr, value) pairs expected in final memory *)
let hand_trace ?(golden = []) tasks =
  let layout = Hscd_lang.Shape.layout ~line_words:4 [ B.array "a" [ 8 ] ] in
  let golden_memory = Array.make layout.Hscd_lang.Shape.total_words 0 in
  List.iter (fun (addr, v) -> golden_memory.(addr) <- v) golden;
  let tasks = Array.of_list (List.mapi (fun iter events -> { Trace.iter; events }) tasks) in
  let total_events = Array.fold_left (fun a (t : Trace.task) -> a + Array.length t.events) 0 tasks in
  {
    Trace.epochs = [| { Trace.kind = Trace.Parallel { lo = 0; hi = Array.length tasks - 1 }; tasks } |];
    layout;
    golden_memory;
    total_events;
  }

let test_ticket_block_unblock () =
  (* task 0 (proc 0) holds ticket 0 but only reaches its lock at t=100;
     task 1 (proc 1) reaches its lock (ticket 1) at t=0 and must park off
     the ready queue until proc 0's unlock re-enqueues it *)
  let trace =
    hand_trace
      [
        [| Event.Compute 100; Event.Lock; Event.Unlock |];
        [| Event.Lock; Event.Unlock; Event.Compute 5 |];
      ]
  in
  let r = Run.simulate ~cfg:cfg4 Run.TPI trace in
  Alcotest.(check int) "both locks granted" 2 r.metrics.lock_acquires;
  Alcotest.(check bool) "proc 1 waited" true (r.metrics.lock_wait_cycles >= 100);
  Alcotest.(check int) "no violations" 0 r.metrics.violations;
  Alcotest.(check bool) "memory ok" true r.memory_ok;
  (* serialization: compute(100) + two lock acquisitions + barrier *)
  Alcotest.(check bool) "cycles cover the serialized locks" true
    (r.cycles >= 100 + (2 * cfg4.lock_cycles) + cfg4.barrier_cycles)

let test_empty_task_skip () =
  (* empty tasks interleaved with real ones: the refill path must skip
     them without scheduling phantom events *)
  let trace =
    hand_trace
      ~golden:[ (0, 7); (4, 9) ]
      [
        [||];
        [| Event.Write { addr = 0; mark = Event.Normal_write; value = 7; array = "a" } |];
        [||];
        [| Event.Write { addr = 4; mark = Event.Normal_write; value = 9; array = "a" } |];
      ]
  in
  List.iter
    (fun kind ->
      let r = Run.simulate ~cfg:cfg4 kind trace in
      Alcotest.(check bool) (Run.scheme_name kind ^ " memory") true r.memory_ok;
      Alcotest.(check int) (Run.scheme_name kind ^ " violations") 0 r.metrics.violations;
      Alcotest.(check int) (Run.scheme_name kind ^ " writes") 2 (Metrics.writes r.metrics))
    Run.all_schemes

let test_empty_tasks_dynamic () =
  let trace = hand_trace ~golden:[ (0, 3) ]
      [ [||]; [||]; [||];
        [| Event.Write { addr = 0; mark = Event.Normal_write; value = 3; array = "a" } |] ]
  in
  let cfg = { cfg4 with scheduling = Config.Dynamic } in
  let r = Run.simulate ~cfg Run.HW trace in
  Alcotest.(check bool) "memory ok" true r.memory_ok;
  Alcotest.(check int) "one write" 1 (Metrics.writes r.metrics)

let test_migration_reenqueue () =
  (* migration_rate = 1: every eligible dynamic task truncates and its
     tail goes back to the shared queue for re-enqueue on another node *)
  let cfg = { cfg4 with scheduling = Config.Dynamic; migration_rate = 1.0 } in
  let _, r = Run.run_source ~cfg Run.TPI (Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:2 ()) in
  Alcotest.(check bool) "tasks migrated" true (r.metrics.migrations > 0);
  Alcotest.(check int) "still coherent" 0 r.metrics.violations;
  Alcotest.(check bool) "memory ok" true r.memory_ok

(* Counts the replayed metrics must reproduce from the trace alone,
   whatever the scheme, machine size or scheduling: every access, lock and
   compute slot is replayed exactly once, and compute cycles survive the
   engine's folding of compute slots into the event before them *)
let test_accounting_identities () =
  let configs =
    [
      ("P=1", { Config.default with processors = 1 });
      ("P=16", Config.default);
      ("P=1024 block", { Config.default with processors = 1024; scheduling = Config.Block });
      ( "P=16 dynamic+migration",
        { Config.default with scheduling = Config.Dynamic; migration_rate = 0.3 } );
    ]
  in
  List.iter
    (fun name ->
      let program = (Option.get (Hscd_workloads.Programs.find ~small:true name)) () in
      List.iter
        (fun (cname, cfg) ->
          let t = (Run.compile ~cfg program).Run.packed_trace in
          let reads, writes = Trace.packed_access_counts t in
          let locks = ref 0 and compute = ref 0 in
          for i = 0 to t.Trace.n_slots - 1 do
            let op = Trace.Slab.get t.Trace.ops i in
            if op = Hscd_arch.Event.Code.lock then incr locks
            else if op = Hscd_arch.Event.Code.compute then
              compute := !compute + Trace.Slab.get t.Trace.addrs i
          done;
          List.iter
            (fun kind ->
              let m = (Run.simulate_packed ~cfg kind t).Engine.metrics in
              let check what =
                Alcotest.(check int)
                  (Printf.sprintf "%s %s %s: %s" name cname (Run.scheme_name kind) what)
              in
              check "reads" reads (Metrics.reads m);
              check "writes" writes (Metrics.writes m);
              check "read misses" (Metrics.reads m - Metrics.read_hits m) m.Metrics.read_miss_count;
              check "barriers" (Trace.packed_n_epochs t) m.Metrics.barriers;
              check "lock acquires" !locks m.Metrics.lock_acquires;
              check "compute cycles" !compute m.Metrics.compute_cycles)
            Run.extended_schemes)
        configs)
    Hscd_workloads.Programs.names

let suite =
  [
    Alcotest.test_case "all schemes coherent" `Quick test_all_schemes_coherent;
    Alcotest.test_case "BASE misses everything" `Quick test_base_miss_rate_is_total;
    Alcotest.test_case "trace shape" `Quick test_trace_shape;
    Alcotest.test_case "unsafe mark caught" `Quick test_unsafe_mark_is_caught;
    Alcotest.test_case "safe manual marks pass" `Quick test_safe_manual_marks_pass;
    Alcotest.test_case "scheduling policies coherent" `Quick test_scheduling_policies_coherent;
    Alcotest.test_case "dynamic loses alignment" `Quick test_dynamic_slower_or_equal_misses;
    Alcotest.test_case "locks serialize" `Quick test_locks_serialize;
    Alcotest.test_case "barrier accounting" `Quick test_barrier_accounting;
    Alcotest.test_case "parallel speedup" `Quick test_more_processors_not_slower;
    Alcotest.test_case "timetag width monotone" `Quick test_timetag_width_monotone;
    Alcotest.test_case "ready queue: ticket block/unblock" `Quick test_ticket_block_unblock;
    Alcotest.test_case "ready queue: empty tasks skipped" `Quick test_empty_task_skip;
    Alcotest.test_case "ready queue: empty tasks (dynamic)" `Quick test_empty_tasks_dynamic;
    Alcotest.test_case "ready queue: migration re-enqueue" `Quick test_migration_reenqueue;
    Alcotest.test_case "accounting identities" `Quick test_accounting_identities;
  ]
