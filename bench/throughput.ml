(* Standalone engine-throughput probe: a quick before/after check when
   touching the engine or trace-generation hot paths, without a full
   table regeneration.

   Usage: dune exec bench/throughput.exe [-- --smoke]

   Flags:
     --smoke       capped workload over all seven schemes; exit 1 when a
                   packed replay is not bit-identical to the boxed one or
                   crosses its per-scheme minor-words/event ceiling (at
                   P=16 and at P=1024, where the ready queue has 10-bit
                   processor keys and a deep heap), when building a
                   P=1024 machine allocates more words than its ceiling
                   (the caches, fetch maps and directory entries must
                   cost what the trace touches), when the streaming
                   trace builder diverges from boxed-generation + pack or
                   allocates too much per generated event (minor heap, and
                   both heaps between full major collections), or when a
                   timing-knob sweep fails to share compiled traces (the
                   @perf-smoke alias) *)

(* replay side: the engine decodes events without constructing variants.
   Per-scheme minor-words/event ceilings at roughly 2x the measured smoke
   values (BASE 1.3; SC/INV/VC/TPI 5.6; the directory schemes 7.3, and
   10.5 at P=1024 — their invalidation fan-out walks sharer sets): a scheme crossing its ceiling
   has grown a new per-event allocation, not noise *)
let replay_words_cap = function
  | "BASE" -> 4.0
  | "HW" | "LimitLESS" -> 16.0
  | _ -> 8.0 (* SC, INV, VC, TPI *)

(* machine construction at P=1024 on the smoke trace (16,384 memory
   words): words allocated on both heaps, ceilings at roughly 2x the
   measured values (BASE 65,602, its memory image; the cached schemes
   84,705-84,737; the directory schemes 86,626). Set tables, fetch maps
   and directory entries are arrays too large for the minor heap, so the
   words/event ceilings above never see them: a machine that builds one
   per processor or per line again (4.8-4.9 M words here) fails only
   this gate. *)
let build_words_cap = function
  | "BASE" -> 135_000.0
  | _ -> 175_000.0

(* compile side: streaming generation writes into reused Bigarray chunks,
   so per-slot allocation is the packed form's per-task records plus
   interpreter overhead. Ceilings at roughly 2x the smoke workload's
   measured values: 2.96 minor words/slot, almost all of it the 6-word
   task record of its 2.2-slot tasks (2.62 at full scale; the boxed path
   is ~29), and 4.88 words/slot on both heaps. Heap arrays that double
   in every generation (12.1 words/slot on both heaps for task
   descriptors alone) fail the second gate. *)
let gen_words_cap = 5.9

let gen_alloc_words_cap = 10.0

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let report =
    if smoke then
      Perf.measure ~processors:16 ~n:512 ~iters:2 ~reps:1
        ~schemes:Hscd_sim.Run.extended_schemes ()
    else Perf.measure ~schemes:Hscd_sim.Run.extended_schemes ()
  in
  Perf.print_report report;
  (* a small trace on the largest machine the paper simulates *)
  let wide =
    Perf.measure ~processors:1024 ~n:8192 ~iters:2 ~reps:1
      ~schemes:Hscd_sim.Run.extended_schemes ()
  in
  Perf.print_report wide;
  let gen =
    if smoke then Perf.measure_compile ~processors:16 ~n:512 ~iters:2 ~reps:1 ()
    else Perf.measure_compile ()
  in
  Perf.print_compile_row gen;
  let cache = Perf.measure_cache () in
  Perf.print_cache_row cache;
  if not smoke then Perf.compare_wall_clock ();
  let bad =
    List.concat_map
      (fun (rep : Perf.report) ->
        List.filter_map
          (fun (r : Perf.scheme_row) ->
            if (not r.identical) || r.minor_words_per_event >= replay_words_cap r.scheme then
              Some (rep.processors, r)
            else None)
          rep.rows)
      [ report; wide ]
  in
  List.iter
    (fun (p, (r : Perf.scheme_row)) ->
      Printf.eprintf
        "throughput: FAIL %s at P=%d (identical=%b, minor_words_per_event=%.2f >= %.1f?)\n"
        r.scheme p r.identical r.minor_words_per_event (replay_words_cap r.scheme))
    bad;
  let build_bad =
    List.filter (fun (r : Perf.scheme_row) -> r.build_words >= build_words_cap r.scheme) wide.rows
  in
  List.iter
    (fun (r : Perf.scheme_row) ->
      Printf.eprintf "throughput: FAIL %s machine build at P=%d (%.0f words >= %.0f)\n" r.scheme
        wide.processors r.build_words (build_words_cap r.scheme))
    build_bad;
  let gen_bad =
    (not gen.Perf.gen_identical)
    || gen.Perf.gen_stream_words_per_event >= gen_words_cap
    || gen.Perf.gen_stream_alloc_words_per_event >= gen_alloc_words_cap
  in
  if gen_bad then
    Printf.eprintf
      "throughput: FAIL tracegen (identical=%b, minor_words_per_event=%.2f >= %.1f?, \
       alloc_words_per_event=%.2f >= %.1f?)\n"
      gen.Perf.gen_identical gen.Perf.gen_stream_words_per_event gen_words_cap
      gen.Perf.gen_stream_alloc_words_per_event gen_alloc_words_cap;
  if not cache.Perf.cache_ok then
    Printf.eprintf
      "throughput: FAIL compile cache (second sweep point regenerated traces: %d generations, \
       %d hits)\n"
      cache.Perf.cache_generations cache.Perf.cache_hits;
  if bad <> [] || build_bad <> [] || gen_bad || not cache.Perf.cache_ok then exit 1
