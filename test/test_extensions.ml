(** Tests for the extension features: VC and INV schemes, sequential
    consistency, and mid-task migration. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme
module Vc = Hscd_coherence.Vc
module Inv = Hscd_coherence.Inv
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Run = Hscd_sim.Run
module Metrics = Hscd_sim.Metrics

let cls = Alcotest.testable (Fmt.of_to_string Scheme.class_name) ( = )

let cfg = { Config.default with processors = 4 }

(* throwaway stall scratch for boundary calls whose stalls don't matter *)
let scratch () = Array.make cfg.Config.processors 0

let make_vc () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  Vc.create cfg ~memory_words:256 ~network:net ~traffic

let make_inv () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  Inv.create cfg ~memory_words:256 ~network:net ~traffic

(* --- VC semantics --- *)

let test_vc_version_hit_and_miss () =
  let vc = make_vc () in
  (* fetch a word of array "x" at version 0 *)
  ignore (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 5));
  (* still current: flagged read hits *)
  Alcotest.check cls "current version hits" Scheme.Hit
    (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 5)).cls;
  (* another processor writes a DIFFERENT word of the same array *)
  ignore (Vc.write vc ~proc:1 ~addr:100 ~array:0 ~value:1 ~mark:Event.Normal_write);
  Vc.epoch_boundary vc ~stalls:(scratch ());
  (* array version bumped: the flagged read misses even though word 4 was
     never written — VC's variable-granularity conservatism *)
  Alcotest.check cls "stale version misses" Scheme.Conservative
    (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 5)).cls

let test_vc_other_array_untouched () =
  let vc = make_vc () in
  ignore (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 5));
  ignore (Vc.write vc ~proc:1 ~addr:100 ~array:1 ~value:1 ~mark:Event.Normal_write);
  Vc.epoch_boundary vc ~stalls:(scratch ());
  (* y's version bump does not disturb x *)
  Alcotest.check cls "per-array versions" Scheme.Hit
    (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 5)).cls

let test_vc_own_write_is_current () =
  let vc = make_vc () in
  ignore (Vc.write vc ~proc:0 ~addr:8 ~array:0 ~value:9 ~mark:Event.Normal_write);
  Vc.epoch_boundary vc ~stalls:(scratch ());
  let r = Vc.read vc ~proc:0 ~addr:8 ~array:0 ~mark:(Event.Time_read 0) in
  Alcotest.check cls "writer keeps its copy" Scheme.Hit r.cls;
  Alcotest.(check int) "value" 9 r.value

let test_vc_normal_reads_unaffected () =
  let vc = make_vc () in
  ignore (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read);
  ignore (Vc.write vc ~proc:1 ~addr:100 ~array:0 ~value:1 ~mark:Event.Normal_write);
  Vc.epoch_boundary vc ~stalls:(scratch ());
  Alcotest.check cls "Normal survives version bump" Scheme.Hit
    (Vc.read vc ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read).cls

(* --- INV semantics --- *)

let test_inv_epoch_invalidation () =
  let inv = make_inv () in
  ignore (Inv.read inv ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read);
  Alcotest.check cls "within epoch" Scheme.Hit
    (Inv.read inv ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read).cls;
  Inv.epoch_boundary inv ~stalls:(scratch ());
  Alcotest.check cls "boundary wipes the cache" Scheme.Conservative
    (Inv.read inv ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read).cls

let test_inv_ignores_distance () =
  let inv = make_inv () in
  ignore (Inv.read inv ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 3));
  (* within the same epoch even a flagged read hits: the region was fetched
     after the last boundary *)
  Alcotest.check cls "flagged read hits within epoch" Scheme.Hit
    (Inv.read inv ~proc:0 ~addr:4 ~array:0 ~mark:(Event.Time_read 3)).cls

(* --- end-to-end coherence of the new schemes --- *)

let test_new_schemes_coherent () =
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) ->
      let _, results =
        Run.compare ~cfg ~schemes:[ Run.VC; Run.INV; Run.LimitLESS ] (e.build_small ())
      in
      List.iter
        (fun (r : Run.comparison) ->
          Alcotest.(check int)
            (e.name ^ "/" ^ Run.scheme_name r.kind) 0 r.result.metrics.violations;
          Alcotest.(check bool)
            (e.name ^ "/" ^ Run.scheme_name r.kind ^ " mem") true r.result.memory_ok)
        results)
    Hscd_workloads.Perfect.all

let test_locality_ordering () =
  (* TPI must never miss more than SC (same marks, strictly more hardware
     support) nor more than INV (INV drops everything at each boundary).
     VC and TPI are incomparable: VC's runtime version check keeps a
     writer's own data live where TPI's static distance rejects it, while
     TPI's per-word tags survive writes to other parts of the array. *)
  let p = Hscd_workloads.Kernels.jacobi1d ~n:256 ~iters:8 () in
  let _, results = Run.compare ~cfg ~schemes:[ Run.SC; Run.INV; Run.VC; Run.TPI ] p in
  let miss k =
    Metrics.miss_rate
      (List.find (fun (r : Run.comparison) -> r.kind = k) results).result.metrics
  in
  Alcotest.(check bool) "TPI <= SC" true (miss Run.TPI <= miss Run.SC);
  Alcotest.(check bool) "TPI <= INV" true (miss Run.TPI <= miss Run.INV);
  Alcotest.(check bool) "every scheme beats BASE trivially" true (miss Run.SC < 1.0)

(* --- sequential consistency --- *)

let test_sequential_slower () =
  let p = Hscd_workloads.Kernels.jacobi1d ~n:128 ~iters:4 () in
  let run consistency kind =
    (snd (Run.run_source ~cfg:{ cfg with consistency } kind p)).cycles
  in
  List.iter
    (fun kind ->
      let weak = run Config.Weak kind and seq = run Config.Sequential kind in
      Alcotest.(check bool) (Run.scheme_name kind ^ " seq slower") true (seq > weak))
    [ Run.Base; Run.SC; Run.TPI; Run.HW ]

let test_sequential_coherent () =
  let p = Hscd_workloads.Kernels.matmul ~n:12 () in
  let _, results = Run.compare ~cfg:{ cfg with consistency = Config.Sequential } p in
  List.iter
    (fun (r : Run.comparison) ->
      Alcotest.(check int) (Run.scheme_name r.kind) 0 r.result.metrics.violations)
    results

(* --- migration --- *)

let mig_cfg rate = { cfg with scheduling = Config.Dynamic; migration_rate = rate }

let test_migration_happens () =
  let p = Hscd_workloads.Kernels.jacobi1d ~n:128 ~iters:4 () in
  let _, r = Run.run_source ~cfg:(mig_cfg 0.5) Run.TPI p in
  Alcotest.(check bool) "migrations occurred" true (r.metrics.migrations > 0);
  Alcotest.(check int) "still coherent" 0 r.metrics.violations;
  Alcotest.(check bool) "memory intact" true r.memory_ok

let test_migration_zero_rate () =
  let p = Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:2 () in
  let _, r = Run.run_source ~cfg:(mig_cfg 0.0) Run.TPI p in
  Alcotest.(check int) "no migrations at rate 0" 0 r.metrics.migrations

let test_migration_all_schemes () =
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) ->
      let _, results =
        Run.compare ~cfg:(mig_cfg 0.3) ~schemes:Run.extended_schemes (e.build_small ())
      in
      List.iter
        (fun (r : Run.comparison) ->
          Alcotest.(check int)
            (e.name ^ "/" ^ Run.scheme_name r.kind ^ " migrated coherent")
            0 r.result.metrics.violations)
        results)
    Hscd_workloads.Perfect.all

let test_migration_requires_dynamic () =
  Alcotest.check_raises "static + migration rejected"
    (Invalid_argument "Config: task migration requires dynamic scheduling")
    (fun () ->
      ignore (Config.validate { cfg with scheduling = Config.Block; migration_rate = 0.5 }))

let test_migration_never_splits_locks () =
  (* critical sections must not migrate: the reduction kernel still works *)
  let p = Hscd_workloads.Kernels.reduction ~n:64 () in
  let _, r = Run.run_source ~cfg:(mig_cfg 0.9) Run.TPI p in
  Alcotest.(check int) "coherent" 0 r.metrics.violations;
  Alcotest.(check int) "all locks acquired" 64 r.metrics.lock_acquires

let suite =
  [
    Alcotest.test_case "vc version hit/miss" `Quick test_vc_version_hit_and_miss;
    Alcotest.test_case "vc per-array" `Quick test_vc_other_array_untouched;
    Alcotest.test_case "vc own write current" `Quick test_vc_own_write_is_current;
    Alcotest.test_case "vc normal reads" `Quick test_vc_normal_reads_unaffected;
    Alcotest.test_case "inv epoch invalidation" `Quick test_inv_epoch_invalidation;
    Alcotest.test_case "inv within epoch" `Quick test_inv_ignores_distance;
    Alcotest.test_case "new schemes coherent" `Quick test_new_schemes_coherent;
    Alcotest.test_case "locality ordering" `Quick test_locality_ordering;
    Alcotest.test_case "sequential slower" `Quick test_sequential_slower;
    Alcotest.test_case "sequential coherent" `Quick test_sequential_coherent;
    Alcotest.test_case "migration happens" `Quick test_migration_happens;
    Alcotest.test_case "migration zero rate" `Quick test_migration_zero_rate;
    Alcotest.test_case "migration all schemes" `Quick test_migration_all_schemes;
    Alcotest.test_case "migration requires dynamic" `Quick test_migration_requires_dynamic;
    Alcotest.test_case "migration never splits locks" `Quick test_migration_never_splits_locks;
  ]
