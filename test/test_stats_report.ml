(** Tests for workload characterization and the annotated report output. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace_stats = Hscd_sim.Trace_stats
module Report = Hscd_compiler.Report
module Marking = Hscd_compiler.Marking
module Sema = Hscd_lang.Sema
module Parser = Hscd_lang.Parser

let test_trace_stats_jacobi () =
  let c = Run.compile (Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:2 ()) in
  let s = Trace_stats.of_trace Config.default c.Run.packed_trace in
  Alcotest.(check int) "epochs" 11 s.epochs;
  Alcotest.(check int) "parallel epochs" 5 s.parallel_epochs;
  (* init: 64 tasks; 4 stencil/copy epochs: 62 tasks each; + serial tasks *)
  Alcotest.(check bool) "tasks counted" true (s.tasks >= 64 + (4 * 62));
  (* a[0..63] plus b[1..62]: 126 distinct words *)
  Alcotest.(check int) "footprint" 126 s.footprint_words;
  Alcotest.(check bool) "some sharing" true (s.shared_words > 0);
  Alcotest.(check bool) "sharing is partial" true (s.shared_words < s.footprint_words);
  Alcotest.(check bool) "reads and writes" true (s.reads > 0 && s.writes > 0);
  Alcotest.(check int) "no locks" 0 s.lock_events

let test_trace_stats_reduction_locks () =
  let c = Run.compile (Hscd_workloads.Kernels.reduction ~n:32 ()) in
  let s = Trace_stats.of_trace Config.default c.Run.packed_trace in
  Alcotest.(check int) "one lock per task" 32 s.lock_events

let test_trace_stats_fractions () =
  let c = Run.compile (Hscd_workloads.Kernels.gather ~n:64 ~iters:2 ()) in
  let s = Trace_stats.of_trace Config.default c.Run.packed_trace in
  (* gather reads through blackbox permutations: most reads are marked *)
  Alcotest.(check bool) "marked fraction positive" true (Trace_stats.marked_read_fraction s > 0.3);
  Alcotest.(check bool) "fractions in range" true
    (Trace_stats.sharing_fraction s >= 0.0 && Trace_stats.sharing_fraction s <= 1.0)

(* --- annotated listings (golden) --- *)

let annotate src =
  let m = Marking.mark_program (Sema.check_exn (Parser.parse_exn src)) in
  Report.annotated_listing m.Marking.program

let test_listing_contains_marks () =
  let listing = annotate {|
array a[64]
array b[64]
proc main()
  doall i = 0, 63
    a[i] = i
  end
  doall i = 1, 62
    b[i] = a[i - 1]
  end
end|} in
  let has sub =
    let n = String.length listing and m = String.length sub in
    let rec go i = i + m <= n && (String.sub listing i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "Time-Read annotation shown" true (has "{T1}");
  Alcotest.(check bool) "declaration printed" true (has "array a[64]")

let test_census_lines_render () =
  let m = Marking.mark_program (Sema.check_exn (Hscd_workloads.Kernels.gather ~n:32 ~iters:1 ())) in
  let lines = Report.census_lines m.Marking.census in
  Alcotest.(check bool) "six summary lines" true (List.length lines = 6);
  Alcotest.(check bool) "mentions time-read" true
    (List.exists (fun l ->
         let has sub =
           let n = String.length l and m = String.length sub in
           let rec go i = i + m <= n && (String.sub l i m = sub || go (i + 1)) in
           go 0
         in
         has "time-read") lines)

let suite =
  [
    Alcotest.test_case "trace stats jacobi" `Quick test_trace_stats_jacobi;
    Alcotest.test_case "trace stats locks" `Quick test_trace_stats_reduction_locks;
    Alcotest.test_case "trace stats fractions" `Quick test_trace_stats_fractions;
    Alcotest.test_case "annotated listing" `Quick test_listing_contains_marks;
    Alcotest.test_case "census lines" `Quick test_census_lines_render;
  ]
