(** Quickstart: parse a small PFL program, run the coherence compiler,
    simulate it under the TPI scheme on the paper's default machine, and
    compare the paper's four schemes on the same trace. Exits non-zero if
    any run is incoherent.

    Run with: [dune exec examples/quickstart.exe] *)

let source = {|
array a[128]
array b[128]

proc main()
  # producer epoch: every task initializes its own element
  doall i = 0, 127
    a[i] = i * i
  end
  # consumer epochs: a 3-point stencil, repeated
  do t = 0, 4
    doall i = 1, 126
      b[i] = (a[i - 1] + a[i + 1]) / 2
    end
    doall i = 1, 126
      a[i] = b[i]
    end
  end
end
|}

let () =
  let program = Core.parse source in

  (* 1. What did the compiler decide? *)
  let listing, census = Core.mark program in
  print_endline "=== compiler-marked program ===";
  print_endline listing;
  Core.Compiler.Report.print_census census;

  (* 2. Simulate under TPI. *)
  let _compiled, result = Core.simulate ~scheme:Core.Sim.Run.TPI program in
  let m = result.Core.Sim.Engine.metrics in
  Printf.printf "\n=== TPI simulation (16 processors, Fig-8 machine) ===\n";
  Printf.printf "execution time : %d cycles\n" result.cycles;
  Printf.printf "miss rate      : %.2f%%\n" (100.0 *. Core.Sim.Metrics.miss_rate m);
  Printf.printf "avg miss lat.  : %.1f cycles\n" (Core.Sim.Metrics.avg_read_miss_latency m);
  assert (result.memory_ok && m.violations = 0);
  Printf.printf "coherent       : yes (verified against golden interpreter)\n";

  (* 3. Peek at the final memory through the golden interpreter. *)
  let checked = Core.Lang.Sema.check_exn program in
  let r = Core.Lang.Eval.run checked in
  Printf.printf "a[63] after 5 smoothing steps = %d\n" (Core.Lang.Eval.peek r "a" [ 63 ]);

  (* 4. The paper's four schemes, one compiled trace. *)
  let _compiled, results = Core.compare_schemes program in
  print_endline "\n=== all four schemes ===";
  List.iter
    (fun (r : Core.Sim.Run.comparison) ->
      assert (r.result.memory_ok && r.result.metrics.violations = 0);
      Printf.printf "%-5s %d cycles\n" (Core.Sim.Run.scheme_name r.kind) r.result.cycles)
    results
