(** Runner chaos harness (`dune build @chaos-smoke`): one end-to-end
    supervised sweep at P=64 with every failure mode the robustness layer
    claims to survive, injected at once:

    - worker crashes (two cells crash on their first attempts),
    - a hang that must blow the per-task deadline and be retried on a
      fresh worker,
    - a checkpoint journal truncated mid-record (kill-mid-write; the torn
      tail must be dropped, the valid prefix resumed from).

    The supervised run must converge and its results must be
    bit-identical to a fault-free jobs=1 run; a subsequent --resume-style
    rerun must reproduce them again from the journal alone. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Common = Hscd_experiments.Common
module Pool = Hscd_util.Pool
module Journal = Hscd_util.Journal
module Err = Hscd_util.Hscd_error
module Chaos = Hscd_check.Fault.Chaos

let failures = ref 0

let check name cond =
  if cond then Printf.printf "  ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let cfg = { Config.default with processors = 64 }
let schemes = [ Run.TPI; Run.HW ]

let bench_results_equal (a : Common.bench_result list) (b : Common.bench_result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Common.bench_result) (y : Common.bench_result) ->
         x.bench = y.bench
         && List.for_all2
              (fun (ka, (ra : Engine.result)) (kb, rb) -> ka = kb && ra = rb)
              x.by_scheme y.by_scheme)
       a b

let get what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Err.to_string e))

let () =
  let journal_path = Filename.concat (Filename.get_temp_dir_name ()) "hscd_chaos.jnl" in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  Run.reset_compile_cache ();

  (* --- 1. fault-free reference, jobs=1 --- *)
  Printf.printf "chaos-smoke: P=%d, schemes TPI+HW, small benches\n%!" cfg.Config.processors;
  let reference = get "reference run" (Common.run_all_result ~cfg ~schemes ~small:true ~jobs:1 ()) in
  check "reference sweep completed" (List.length reference = 6);

  (* --- 2. seed the checkpoint with the TPI half, then tear its tail --- *)
  let _ =
    get "seed run"
      (Common.run_all_result ~cfg ~schemes:[ Run.TPI ] ~small:true ~jobs:1
         ~checkpoint:journal_path ())
  in
  Chaos.truncate_file journal_path ~drop:7;
  let seeded = get "torn journal load" (Journal.load journal_path) in
  check "torn tail dropped a record but kept the prefix" (List.length seeded = 5);

  (* --- 3. the chaos run: crashes + a hang, resumed from the torn journal --- *)
  let plan =
    Chaos.plan
      ~crash_first:[ ("TRFD/HW", 2); ("QCD2/HW", 1) ]
      ~hang_first:[ ("OCEAN/HW", 120.0) ]
      ()
  in
  let inject ~bench ~kind = Chaos.strike plan (bench ^ "/" ^ Run.scheme_name kind) in
  (* the deadline must sit well above a contended cell's honest runtime
     (seconds) and well below the injected hang (minutes) *)
  let policy =
    { Pool.default_policy with Pool.deadline = Some 15.0; retries = 3; backoff = 0.02 }
  in
  let chaotic =
    get "chaos run"
      (Common.run_all_result ~cfg ~schemes ~small:true ~jobs:4 ~policy
         ~checkpoint:journal_path ~inject ())
  in
  Chaos.release plan;
  check "crash plan struck TRFD/HW at least three times (2 crashes + success)"
    (Chaos.attempts plan "TRFD/HW" >= 3);
  check "hang plan struck OCEAN/HW at least twice (hang + retry)"
    (Chaos.attempts plan "OCEAN/HW" >= 2);
  check "chaos run bit-identical to fault-free jobs=1" (bench_results_equal reference chaotic);

  (* --- 4. resume: everything must now come from the journal alone --- *)
  let keys = List.map fst (get "final journal load" (Journal.load journal_path)) in
  let distinct = List.sort_uniq compare keys in
  check "journal holds every cell of the grid" (List.length distinct = 12);
  let chaos_injects = Chaos.attempts plan "TRFD/HW" in
  let resumed =
    get "resumed run"
      (Common.run_all_result ~cfg ~schemes ~small:true ~jobs:1 ~checkpoint:journal_path
         ~inject ())
  in
  check "resume re-simulated nothing" (Chaos.attempts plan "TRFD/HW" = chaos_injects);
  check "resume bit-identical to fault-free jobs=1" (bench_results_equal reference resumed);

  (* --- 5. a corrupt journal record is re-simulated, not trusted --- *)
  Chaos.corrupt_file journal_path ~byte:(-20);
  let healed =
    get "run after journal corruption"
      (Common.run_all_result ~cfg ~schemes ~small:true ~jobs:2 ~policy
         ~checkpoint:journal_path ())
  in
  check "corrupt journal tail healed, results identical" (bench_results_equal reference healed);

  Sys.remove journal_path;
  if !failures > 0 then begin
    Printf.printf "chaos-smoke: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "chaos-smoke: all checks passed"
