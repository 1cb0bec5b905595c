(** Smoke and shape tests for the experiment harness (at small benchmark
    scale so the whole suite stays fast). *)

module Experiments = Hscd_experiments.Experiments
module Common = Hscd_experiments.Common
module Table = Hscd_util.Table

let test_registry_complete () =
  let ids = List.map (fun (e : Experiments.t) -> e.id) Experiments.all in
  List.iter
    (fun required ->
      Alcotest.(check bool) ("has " ^ required) true (List.mem required ids))
    [ "fig5"; "fig8"; "census"; "workloads"; "fig11"; "fig12"; "latency"; "traffic";
      "timetag"; "exectime"; "wcache"; "alignment"; "scheduling"; "cachesize"; "family";
      "consistency"; "migration"; "assoc" ];
  Alcotest.(check bool) "find" true (Experiments.find "fig11" <> None);
  Alcotest.(check bool) "find unknown" true (Experiments.find "zzz" = None)

let test_every_experiment_produces_rows () =
  List.iter
    (fun (e : Experiments.t) ->
      let tables = e.run ~small:true () in
      Alcotest.(check bool) (e.id ^ " has tables") true (tables <> []);
      List.iter
        (fun t -> Alcotest.(check bool) (e.id ^ " table non-empty") true (Table.rows t <> []))
        tables)
    Experiments.all

let test_common_all_correct () =
  let results = Common.run_all ~small:true () in
  Alcotest.(check bool) "all schemes coherent on all benchmarks" true
    (Common.all_correct results);
  Alcotest.(check int) "six benchmarks" 6 (List.length results)

let test_common_memoizes () =
  let a = Common.run_all ~small:true () in
  let b = Common.run_all ~small:true () in
  Alcotest.(check bool) "same physical result" true (a == b);
  (* a scheme already simulated in the sweep under another scheme list is
     the same cell, not a second simulation *)
  let tpi = Common.run_all ~schemes:[ Hscd_sim.Run.TPI ] ~small:true () in
  List.iter2
    (fun (r : Common.bench_result) (t : Common.bench_result) ->
      Alcotest.(check (list string)) (t.bench ^ ": requested schemes") [ "TPI" ]
        (List.map (fun (k, _) -> Hscd_sim.Run.scheme_name k) t.by_scheme);
      Alcotest.(check bool) (t.bench ^ ": TPI cell reused") true
        (Common.result_of t Hscd_sim.Run.TPI == Common.result_of r Hscd_sim.Run.TPI))
    a tpi

let test_memo_key_covers_every_config_field () =
  (* a timing knob the old hand-listed key left out: after a default-config
     sweep, the changed config must be simulated, not served from the memo *)
  let tpi rs = List.map (fun r -> (Common.result_of r Hscd_sim.Run.TPI).cycles) rs in
  let cfg = { Hscd_arch.Config.default with miss_base_cycles = 400 } in
  let default = Common.run_all ~schemes:[ Hscd_sim.Run.TPI ] ~small:true () in
  let memo = Common.run_all ~cfg ~schemes:[ Hscd_sim.Run.TPI ] ~small:true () in
  let fresh =
    Hscd_util.Hscd_error.get_exn
      (Common.run_all_result ~cfg ~schemes:[ Hscd_sim.Run.TPI ] ~small:true ())
  in
  Alcotest.(check (list int)) "memo = fresh run" (tpi fresh) (tpi memo);
  Alcotest.(check bool) "the knob moves the cycles" true (tpi fresh <> tpi default)

let test_fig11_shape () =
  (* BASE column must be 100% everywhere; TPI must beat SC everywhere *)
  let results = Common.run_all ~small:true () in
  List.iter
    (fun (r : Common.bench_result) ->
      let miss k = Hscd_sim.Metrics.miss_rate (Common.result_of r k).metrics in
      Alcotest.(check (float 1e-9)) (r.bench ^ " BASE") 1.0 (miss Hscd_sim.Run.Base);
      Alcotest.(check bool) (r.bench ^ " TPI <= SC") true
        (miss Hscd_sim.Run.TPI <= miss Hscd_sim.Run.SC))
    results

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "experiments produce rows" `Slow test_every_experiment_produces_rows;
    Alcotest.test_case "common all correct" `Quick test_common_all_correct;
    Alcotest.test_case "common memoizes" `Quick test_common_memoizes;
    Alcotest.test_case "memo key covers every config field" `Quick
      test_memo_key_covers_every_config_field;
    Alcotest.test_case "fig11 shape" `Quick test_fig11_shape;
  ]
