(** Tests of the domain pool and the multicore experiment runner's
    determinism guarantee: running the same work on 1 or N domains must
    produce bit-identical results — same [Metrics.t], same cycles, same
    violations — because each simulation owns its machine state and PRNG. *)

module Pool = Hscd_util.Pool
module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Fuzz = Hscd_check.Fuzz
module Gen = Hscd_check.Gen
module Oracle = Hscd_check.Oracle
module Prng = Hscd_util.Prng

(* --- Pool --- *)

let done_values outcomes =
  List.map (function Pool.Done v -> v | _ -> Alcotest.fail "task did not finish") outcomes

let supervise_values ~jobs f xs = done_values (fst (Pool.supervise ~jobs f xs))

let test_pool_matches_list_map () =
  let xs = List.init 57 (fun i -> i - 7) in
  let f x = (x * x) - (3 * x) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (supervise_values ~jobs f xs))
    [ 1; 2; 4; 9 ]

let test_pool_preserves_order_under_skew () =
  (* uneven work: later items finish first on a real multicore; order of
     the result list must still follow the input *)
  let xs = List.init 16 (fun i -> i) in
  let f i =
    let acc = ref 0 in
    for k = 0 to (16 - i) * 10_000 do
      acc := !acc + k
    done;
    ignore !acc;
    i * 2
  in
  Alcotest.(check (list int)) "ordered" (List.map f xs) (supervise_values ~jobs:4 f xs)

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (supervise_values ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (supervise_values ~jobs:4 (fun x -> x * 3) [ 3 ])

exception Boom of int

let test_pool_map_surfaces_all_outcomes () =
  (* keep-going: a failing task never discards its siblings *)
  let outcomes, _ =
    Pool.supervise ~jobs:3
      ~policy:{ Pool.default_policy with Pool.retries = 0 }
      (fun x -> if x mod 4 = 1 then raise (Boom x) else x * 10)
      (List.init 10 Fun.id)
  in
  List.iteri
    (fun x oc ->
      if x mod 4 = 1 then
        match oc with
        | Pool.Failed (e : Hscd_util.Hscd_error.t) ->
          Alcotest.(check bool) "worker kind" true (e.kind = Hscd_util.Hscd_error.Worker)
        | _ -> Alcotest.fail "expected a typed error"
      else
        Alcotest.(check int) "sibling survives" (x * 10)
          (match oc with Pool.Done v -> v | _ -> -1))
    outcomes

let test_pool_caller_works_without_deadline () =
  (* without a deadline the calling domain is one of the [jobs] workers;
     with one it only supervises. Each task sleeps, so the single spawned
     worker cannot drain the queue before the caller takes a task. *)
  let caller = Domain.self () in
  let count policy =
    let mu = Mutex.create () in
    let by_caller = ref 0 in
    let f x =
      if Domain.self () = caller then Mutex.protect mu (fun () -> incr by_caller);
      Unix.sleepf 0.01;
      x
    in
    let values = done_values (fst (Pool.supervise ~jobs:2 ~policy f (List.init 8 Fun.id))) in
    Alcotest.(check (list int)) "all done" (List.init 8 Fun.id) values;
    !by_caller
  in
  Alcotest.(check bool) "caller works without a deadline" true (count Pool.default_policy >= 1);
  Alcotest.(check int) "caller only supervises with a deadline" 0
    (count { Pool.default_policy with Pool.deadline = Some 30.0 })

let test_default_jobs_env () =
  let old = Sys.getenv_opt "HSCD_JOBS" in
  Unix.putenv "HSCD_JOBS" "3";
  Alcotest.(check int) "env override" 3 (Pool.default_jobs ());
  Unix.putenv "HSCD_JOBS" "not-a-number";
  Alcotest.(check bool) "garbage falls back to >= 1" true (Pool.default_jobs () >= 1);
  Unix.putenv "HSCD_JOBS" (match old with Some v -> v | None -> "")

(* --- determinism: Run.compare at jobs=1 vs jobs=4 --- *)

let check_comparisons_identical name (a : Run.comparison list) (b : Run.comparison list) =
  Alcotest.(check int) (name ^ ": same count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Run.comparison) (y : Run.comparison) ->
      let n = name ^ "/" ^ Run.scheme_name x.kind in
      Alcotest.(check bool) (n ^ ": same scheme") true (x.kind = y.kind);
      Alcotest.(check int) (n ^ ": cycles") x.result.Engine.cycles y.result.Engine.cycles;
      Alcotest.(check int)
        (n ^ ": violations") x.result.Engine.metrics.violations y.result.Engine.metrics.violations;
      (* the full structural check: metrics arrays, latency accumulator,
         traffic, scheme stats, memory verdict, network load *)
      Alcotest.(check bool) (n ^ ": bit-identical result") true (x.result = y.result))
    a b

let test_compare_deterministic_across_jobs () =
  (* a Perfect Club workload at test scale, all four schemes *)
  let entry = List.hd Hscd_workloads.Perfect.all in
  let prog = entry.Hscd_workloads.Perfect.build_small () in
  let cfg = { Config.default with processors = 8 } in
  let _, seq = Run.compare ~cfg ~jobs:1 prog in
  let _, par = Run.compare ~cfg ~jobs:4 prog in
  check_comparisons_identical entry.Hscd_workloads.Perfect.name seq par

let test_compare_deterministic_extended_schemes () =
  let prog = Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:2 () in
  let cfg = { Config.default with processors = 4 } in
  let _, seq = Run.compare ~cfg ~schemes:Run.extended_schemes ~jobs:1 prog in
  let _, par = Run.compare ~cfg ~schemes:Run.extended_schemes ~jobs:3 prog in
  check_comparisons_identical "jacobi-extended" seq par

(* --- determinism: the fuzz oracle's cross-scheme check --- *)

let test_oracle_deterministic_across_jobs () =
  (* a corpus-preset trace through the oracle on 1 vs 4 domains *)
  List.iter
    (fun (name, params) ->
      let prng = Prng.of_int (Fuzz.corpus_seed + Hashtbl.hash name) in
      let trace = Gen.generate prng params in
      let o1 = Oracle.run ~jobs:1 Fuzz.corpus_cfg trace in
      let o4 = Oracle.run ~jobs:4 Fuzz.corpus_cfg trace in
      Alcotest.(check bool) (name ^ ": verdict") (Oracle.ok o1) (Oracle.ok o4);
      Alcotest.(check bool) (name ^ ": agree flag") o1.Oracle.memories_agree o4.Oracle.memories_agree;
      List.iter2
        (fun (a : Oracle.scheme_report) (b : Oracle.scheme_report) ->
          Alcotest.(check bool)
            (name ^ "/" ^ Run.scheme_name a.kind ^ ": bit-identical report")
            true
            (a.result = b.result && a.monitor = b.monitor && a.boundaries_ok = b.boundaries_ok))
        o1.Oracle.reports o4.Oracle.reports)
    (match Fuzz.corpus_presets with p1 :: p2 :: _ -> [ p1; p2 ] | l -> l)

let test_fuzz_deterministic_across_jobs () =
  let r1 = Fuzz.fuzz ~shrink:false ~jobs:1 ~seed:11 ~count:8 () in
  let r4 = Fuzz.fuzz ~shrink:false ~jobs:4 ~seed:11 ~count:8 () in
  Alcotest.(check int) "iterations" r1.Fuzz.iterations r4.Fuzz.iterations;
  Alcotest.(check int) "events" r1.Fuzz.total_events r4.Fuzz.total_events;
  Alcotest.(check int) "failures" (List.length r1.Fuzz.failures) (List.length r4.Fuzz.failures)

(* --- determinism: the experiment runner's simulation grid --- *)

let test_run_all_deterministic_across_jobs () =
  let module Common = Hscd_experiments.Common in
  let cfg1 = { Config.default with processors = 8; timetag_bits = 6 } in
  let seq = Common.run_all ~cfg:cfg1 ~schemes:[ Run.TPI; Run.HW ] ~small:true ~jobs:1 () in
  (* flush the memo cache so the jobs=4 run really re-simulates *)
  Hashtbl.reset Common.cache;
  let par = Common.run_all ~cfg:cfg1 ~schemes:[ Run.TPI; Run.HW ] ~small:true ~jobs:4 () in
  List.iter2
    (fun (a : Common.bench_result) (b : Common.bench_result) ->
      Alcotest.(check string) "bench" a.bench b.bench;
      List.iter2
        (fun (ka, (ra : Engine.result)) (kb, (rb : Engine.result)) ->
          Alcotest.(check bool) (a.bench ^ ": scheme") true (ka = kb);
          Alcotest.(check bool)
            (a.bench ^ "/" ^ Run.scheme_name ka ^ ": bit-identical")
            true (ra = rb))
        a.by_scheme b.by_scheme)
    seq par

let suite =
  [
    Alcotest.test_case "pool matches List.map" `Quick test_pool_matches_list_map;
    Alcotest.test_case "pool preserves order" `Quick test_pool_preserves_order_under_skew;
    Alcotest.test_case "pool empty/singleton" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool map surfaces all outcomes" `Quick test_pool_map_surfaces_all_outcomes;
    Alcotest.test_case "pool caller works without deadline" `Quick
      test_pool_caller_works_without_deadline;
    Alcotest.test_case "HSCD_JOBS env override" `Quick test_default_jobs_env;
    Alcotest.test_case "compare jobs=1 = jobs=4" `Quick test_compare_deterministic_across_jobs;
    Alcotest.test_case "compare extended schemes" `Quick test_compare_deterministic_extended_schemes;
    Alcotest.test_case "oracle jobs=1 = jobs=4" `Quick test_oracle_deterministic_across_jobs;
    Alcotest.test_case "fuzz jobs=1 = jobs=4" `Quick test_fuzz_deterministic_across_jobs;
    Alcotest.test_case "run_all jobs=1 = jobs=4" `Quick test_run_all_deterministic_across_jobs;
  ]
