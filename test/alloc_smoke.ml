(* Allocation gates on the hot paths, counted in words and never timed:
   replay minor words per event at P=16 and at P=1024 (10-bit ready-queue
   keys, a deep heap), words to build a P=1024 machine, and streaming
   trace generation words per slot. Exits 1 when a value reaches its
   ceiling. packed = boxed on these inputs is test/test_packed.ml's job. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Kernels = Hscd_workloads.Kernels

(* replay side: the engine decodes events without constructing variants,
   caches are flat int arrays and work deques hold unboxed ints.
   Per-scheme minor-words/event ceilings at roughly 2x the larger of the
   values measured at P=16 and P=1024 when they were set (BASE 0.39 and
   0.29; SC, INV, VC and TPI 3.76 and 3.34; the directory schemes 4.17
   and 4.48). What
   the cached schemes still allocate is one-time growth of their frame
   arrays and fetch maps, spread over the smoke trace's few events per
   processor: a scheme crossing its ceiling has grown a new per-event
   allocation, not noise *)
let replay_words_cap = function
  | Run.Base -> 0.8
  | Run.HW | Run.LimitLESS -> 9.0
  | Run.SC | Run.INV | Run.VC | Run.TPI -> 7.5

(* machine construction at P=1024 on the smoke trace (16,384 memory
   words): words allocated on both heaps, ceilings at roughly 2x the
   values measured when they were set (BASE 65,602, its memory image;
   the cached schemes 90,850-90,882; the directory schemes
   92,766-92,771). The smoke trace
   has as many memory lines as a cache has sets, so its shared set table
   is full size. Set tables, fetch maps and directory entries are arrays
   too large for the minor heap, so the words/event ceilings above never
   see them: a machine that builds one per processor or per line again
   (4.8-4.9 M words here) fails only this gate. *)
let build_words_cap = function Run.Base -> 135_000.0 | _ -> 175_000.0

(* compile side: streaming generation writes into Bigarray chunks whose
   data lives outside the OCaml heap, so per-slot allocation is the
   packed form's per-task records plus interpreter overhead. Ceilings at
   roughly 2x the smoke workload's measured values: 2.98 minor
   words/slot, almost all of it the 6-word task record of its 2.2-slot
   tasks (2.62 at full scale), and 4.90 words/slot on both heaps. Heap
   arrays that double in every generation (12.1 words/slot on both heaps
   for task descriptors alone) fail the second gate. *)
let gen_words_cap = 5.9

let gen_alloc_words_cap = 10.0

(* Words allocated on either heap by [f ()]: machine construction
   allocates arrays too large for the minor heap, which minor-word counts
   never see. OCaml 5 folds a domain's allocation into the counters behind
   [Gc.allocated_bytes] only at collections, so a full major collection on
   each side makes the delta this call's allocation exactly. *)
let allocated_words f =
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.full_major ();
  (r, (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8))

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let failed = ref false

let gate what value cap =
  let bad = value >= cap in
  Printf.printf "%-40s %12.2f  (ceiling %.1f)%s\n" what value cap (if bad then "  FAIL" else "");
  if bad then failed := true

let config processors = Config.validate { Config.default with processors }

(* every scheme replays a jacobi trace on a fresh machine, once to warm up
   and once measured *)
let replay ~processors ~n =
  let cfg = config processors in
  let p = (Run.compile ~cfg ~cache:false (Kernels.jacobi1d ~n ~iters:2 ())).Run.packed_trace in
  let memory_words = Trace.packed_memory_words p in
  let once kind =
    let (sch, net, traffic), build_words =
      allocated_words (fun () ->
          let net = Hscd_network.Kruskal_snir.create cfg in
          let traffic = Hscd_network.Traffic.create cfg in
          (Run.pack kind cfg ~memory_words ~network:net ~traffic, net, traffic))
    in
    let _, words = minor_words (fun () -> Hscd_sim.Engine.run cfg sch ~net ~traffic p) in
    (words /. float_of_int p.Trace.n_slots, build_words)
  in
  List.iter
    (fun kind ->
      let name = Run.scheme_name kind in
      ignore (once kind);
      let per_event, build_words = once kind in
      gate (Printf.sprintf "replay %s P=%d minor words/event" name processors) per_event
        (replay_words_cap kind);
      if processors = 1024 then
        gate (Printf.sprintf "build %s P=1024 words" name) build_words (build_words_cap kind))
    Run.extended_schemes

let generation () =
  let cfg = config 16 in
  let checked = Hscd_lang.Sema.check_exn (Kernels.jacobi1d ~n:512 ~iters:2 ()) in
  let marked =
    (Hscd_compiler.Marking.mark_program ~static_sched:(Hscd_sim.Schedule.is_static cfg)
       ~intertask:true checked)
      .Hscd_compiler.Marking.program
  in
  let stream () = Trace.of_program_packed ~line_words:cfg.line_words marked in
  ignore (stream ());
  let p, minor = minor_words stream in
  let _, alloc = allocated_words stream in
  let slots = float_of_int p.Trace.n_slots in
  gate "generation minor words/slot" (minor /. slots) gen_words_cap;
  gate "generation words/slot, both heaps" (alloc /. slots) gen_alloc_words_cap

let () =
  replay ~processors:16 ~n:512;
  (* a small trace on the largest machine the paper simulates *)
  replay ~processors:1024 ~n:8192;
  generation ();
  if !failed then exit 1
