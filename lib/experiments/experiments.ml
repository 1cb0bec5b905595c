(** One entry per reproduced table/figure (see DESIGN.md's experiment
    index). Every experiment returns printable tables; the bench harness
    and the CLI render them. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Metrics = Hscd_sim.Metrics
module Scheme = Hscd_coherence.Scheme
module Overhead = Hscd_coherence.Overhead
module Table = Hscd_util.Table

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : ?small:bool -> ?jobs:int -> unit -> Table.t list;
      (** [jobs] = domains for the simulation fan-out; results identical for any value *)
}

let pct = Table.fpct
let f1 = Table.ff1

(* One knob sweep: a {!Common.run_all} per knob value, one column per
   value and one row per benchmark, where [cell] renders a benchmark's
   result under that value. *)
let knob_sweep ?jobs ~small ~title ~schemes ~label ~cfg ~cell knobs =
  let per =
    List.map (fun k -> Array.of_list (Common.run_all ?jobs ~cfg:(cfg k) ~schemes ~small ())) knobs
  in
  let t =
    Table.create ~title
      ~header:("bench" :: List.map label knobs)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) knobs)
      ()
  in
  Array.iteri
    (fun i (r0 : Common.bench_result) ->
      Table.add_row t (r0.bench :: List.map (fun results -> cell results.(i)) per))
    (List.hd per);
  t

(* "TPI miss rate / HW miss rate" *)
let tpi_hw_miss r =
  Printf.sprintf "%s / %s"
    (pct (Metrics.miss_rate (Common.result_of r Run.TPI).metrics))
    (pct (Metrics.miss_rate (Common.result_of r Run.HW).metrics))

(* --- E1: Figure 5, storage overhead --- *)

let fig5 ?small:_ ?jobs:_ () =
  let p = Overhead.paper_default in
  let t =
    Table.create ~title:"Fig 5: storage overhead of coherence support (P=1024, i=10)"
      ~header:[ "scheme"; "cache SRAM (bits)"; "memory DRAM (bits)"; "SRAM total"; "DRAM total" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun (name, (o : Overhead.overhead)) ->
      Table.add_row t
        [
          name;
          (match name.[0] with
          | 'F' | 'L' -> "2*C*P"
          | _ -> Printf.sprintf "%d*L*C*P" p.timetag_bits);
          (match name.[0] with
          | 'F' -> "(P+2)*M*P"
          | 'L' -> "(i+2)*M*P"
          | _ -> "none");
          Table.fbytes (Overhead.bits_to_bytes o.cache_sram_bits);
          (if o.memory_dram_bits = 0 then "none"
           else Table.fbytes (Overhead.bits_to_bytes o.memory_dram_bits));
        ])
    (Overhead.describe p);
  Table.add_note t "paper: 4MB SRAM + 64.5GB DRAM / 4MB + 3GB / 64MB SRAM only";
  [ t ]

(* --- E2: Figure 8, simulation parameters --- *)

let fig8 ?small:_ ?jobs:_ () =
  let t =
    Table.create ~title:"Fig 8: default machine parameters"
      ~header:[ "parameter"; "value" ] ~aligns:[ Table.Left; Table.Left ] ()
  in
  List.iter (fun (k, v) -> Table.add_row t [ k; v ]) (Config.describe Config.default);
  [ t ]

(* --- E3: compiler marking census --- *)

let census ?(small = false) ?jobs () =
  let results = Common.run_all ?jobs ~small () in
  let t =
    Table.create ~title:"Compiler reference marking census (static sites)"
      ~header:[ "bench"; "epochs"; "events"; "normal"; "time-read"; "bypass"; "max d" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun (r : Common.bench_result) ->
      let c = r.census in
      let maxd = List.fold_left (fun m (d, _) -> max m d) 0 c.distance_hist in
      Table.add_row t
        [
          r.bench;
          Table.fi r.trace_epochs;
          Table.fi r.trace_events;
          Table.fi c.normal_reads;
          Table.fi c.time_reads;
          Table.fi c.bypass_reads;
          Table.fi maxd;
        ])
    results;
  [ t ]

(* --- E4: Figure 11, miss rates --- *)

let fig11 ?(small = false) ?jobs () =
  let results = Common.run_all ?jobs ~small () in
  let t =
    Table.create ~title:"Fig 11: shared-data miss rates (64KB direct-mapped, 16B lines)"
      ~header:([ "bench" ] @ List.map Run.scheme_name Run.all_schemes)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) Run.all_schemes)
      ()
  in
  List.iter
    (fun (r : Common.bench_result) ->
      Table.add_row t
        (r.bench
        :: List.map
             (fun k -> pct (Metrics.miss_rate (Common.result_of r k).metrics))
             Run.all_schemes))
    results;
  Table.add_note t "BASE does not cache shared data: every reference is remote";
  [ t ]

(* --- E5: miss decomposition --- *)

let fig12 ?(small = false) ?jobs () =
  let results = Common.run_all ?jobs ~small () in
  let classes =
    [ Scheme.Cold; Scheme.Replacement; Scheme.True_sharing; Scheme.False_sharing;
      Scheme.Conservative; Scheme.Reset_inv ]
  in
  let table_for kind =
    let t =
      Table.create
        ~title:(Printf.sprintf "Fig 12 (%s): miss decomposition (%% of all accesses)" (Run.scheme_name kind))
        ~header:([ "bench" ] @ List.map Scheme.class_name classes @ [ "total miss" ])
        ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) classes @ [ Table.Right ])
        ()
    in
    List.iter
      (fun (r : Common.bench_result) ->
        let m = (Common.result_of r kind).metrics in
        let total = Metrics.accesses m in
        let cell cls = pct (Hscd_util.Stats.ratio (Metrics.class_count m cls) total) in
        Table.add_row t ((r.bench :: List.map cell classes) @ [ pct (Metrics.miss_rate m) ]))
      results;
    t
  in
  [ table_for Run.TPI; table_for Run.HW; table_for Run.SC ]

(* --- E6: average miss latency table, 16B vs 64B lines --- *)

let latency_table ?(small = false) ?jobs () =
  let run_with line_words =
    Common.run_all ?jobs ~cfg:{ Config.default with line_words } ~schemes:[ Run.TPI; Run.HW ] ~small ()
  in
  let r16 = run_with 4 and r64 = run_with 16 in
  let t =
    Table.create ~title:"Average read-miss latency (cycles): TPI vs HW, 16B vs 64B lines"
      ~header:[ "bench"; "TPI 16B"; "TPI 64B"; "HW 16B"; "HW 64B" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter2
    (fun (a : Common.bench_result) (b : Common.bench_result) ->
      let lat r k = f1 (Metrics.avg_read_miss_latency (Common.result_of r k).metrics) in
      Table.add_row t [ a.bench; lat a Run.TPI; lat b Run.TPI; lat a Run.HW; lat b Run.HW ])
    r16 r64;
  Table.add_note t "paper: TPI flat (~136 / ~355); HW inflated on QCD2, TRFD by coherence protocol";
  [ t ]

(* --- E7: network traffic breakdown --- *)

let traffic ?(small = false) ?jobs () =
  let results = Common.run_all ?jobs ~schemes:[ Run.SC; Run.TPI; Run.HW ] ~small () in
  let wc_results =
    Common.run_all ?jobs
      ~cfg:{ Config.default with write_buffer = Config.Write_cache 16 }
      ~schemes:[ Run.TPI ] ~small ()
  in
  let t =
    Table.create ~title:"Fig 13: network traffic (words): read / write / coherence"
      ~header:[ "bench"; "SC r/w"; "TPI r/w"; "TPI+wcache r/w"; "HW r/w/coh" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter2
    (fun (r : Common.bench_result) (wc : Common.bench_result) ->
      let tr k rr = (Common.result_of rr k).metrics.traffic in
      let sc = tr Run.SC r and tpi = tr Run.TPI r and hw = tr Run.HW r in
      let tpi_wc = tr Run.TPI wc in
      Table.add_row t
        [
          r.bench;
          Printf.sprintf "%d/%d" sc.reads sc.writes;
          Printf.sprintf "%d/%d" tpi.reads tpi.writes;
          Printf.sprintf "%d/%d" tpi_wc.reads tpi_wc.writes;
          Printf.sprintf "%d/%d/%d" hw.reads hw.writes hw.coherence;
        ])
    results wc_results;
  Table.add_note t "paper: TPI write traffic dominates on TRFD; a write cache removes the redundancy";
  [ t ]

(* --- E8: timetag size sensitivity --- *)

let timetag ?(small = false) ?jobs () =
  let t =
    knob_sweep ?jobs ~small ~title:"Timetag size sensitivity (TPI): miss rate / resets"
      ~schemes:[ Run.TPI ]
      ~label:(Printf.sprintf "%d-bit")
      ~cfg:(fun b -> { Config.default with timetag_bits = b })
      ~cell:(fun r ->
        let m = (Common.result_of r Run.TPI).metrics in
        Printf.sprintf "%s (%d)" (pct (Metrics.miss_rate m)) m.scheme_stats.two_phase_resets)
      [ 2; 3; 4; 6; 8 ]
  in
  Table.add_note t "paper: a 4-bit or 8-bit timetag is large enough";
  [ t ]

(* --- E9: normalized execution time --- *)

let exec_time ?(small = false) ?jobs () =
  let results = Common.run_all ?jobs ~small () in
  let t =
    Table.create ~title:"Normalized execution time (HW = 1.0)"
      ~header:([ "bench" ] @ List.map Run.scheme_name Run.all_schemes @ [ "HW cycles" ])
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) Run.all_schemes @ [ Table.Right ])
      ()
  in
  List.iter
    (fun (r : Common.bench_result) ->
      let hw = float_of_int (Common.result_of r Run.HW).cycles in
      Table.add_row t
        ((r.bench
         :: List.map
              (fun k -> Table.ff2 (float_of_int (Common.result_of r k).cycles /. hw))
              Run.all_schemes)
        @ [ Table.fi (Common.result_of r Run.HW).cycles ]))
    results;
  [ t ]

(* --- A1: write-cache ablation --- *)

let abl_write_cache ?(small = false) ?jobs () =
  let plain = Common.run_all ?jobs ~schemes:[ Run.TPI ] ~small () in
  let wc =
    Common.run_all ?jobs ~cfg:{ Config.default with write_buffer = Config.Write_cache 16 }
      ~schemes:[ Run.TPI ] ~small ()
  in
  let t =
    Table.create ~title:"Ablation: TPI write traffic with plain buffer vs 16-entry write cache"
      ~header:[ "bench"; "plain (words)"; "write cache (words)"; "reduction" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter2
    (fun (a : Common.bench_result) (b : Common.bench_result) ->
      let wa = (Common.result_of a Run.TPI).metrics.traffic.writes in
      let wb = (Common.result_of b Run.TPI).metrics.traffic.writes in
      Table.add_row t
        [ a.bench; Table.fi wa; Table.fi wb;
          pct (1.0 -. Hscd_util.Stats.ratio wb wa) ])
    plain wc;
  [ t ]

(* --- A2: owner-alignment (intertask locality) ablation --- *)

let abl_alignment ?(small = false) ?jobs () =
  let on = Common.run_all ?jobs ~schemes:[ Run.TPI ] ~small () in
  let off = Common.run_all ?jobs ~schemes:[ Run.TPI ] ~intertask:false ~small () in
  let t =
    Table.create ~title:"Ablation: TPI miss rate with/without owner-alignment analysis [21]"
      ~header:[ "bench"; "alignment on"; "alignment off" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ()
  in
  List.iter2
    (fun (a : Common.bench_result) (b : Common.bench_result) ->
      Table.add_row t
        [
          a.bench;
          pct (Metrics.miss_rate (Common.result_of a Run.TPI).metrics);
          pct (Metrics.miss_rate (Common.result_of b Run.TPI).metrics);
        ])
    on off;
  [ t ]

(* --- A3: scheduling policy ablation --- *)

let abl_scheduling ?(small = false) ?jobs () =
  let t =
    knob_sweep ?jobs ~small
      ~title:"Ablation: TPI vs DOALL scheduling (miss rate; alignment off for dynamic)"
      ~schemes:[ Run.TPI ] ~label:Config.scheduling_name
      ~cfg:(fun s -> { Config.default with scheduling = s })
      ~cell:(fun r ->
        let res = Common.result_of r Run.TPI in
        Printf.sprintf "%s%s" (pct (Metrics.miss_rate res.metrics))
          (if res.metrics.violations > 0 then "!" else ""))
      [ Config.Block; Config.Cyclic; Config.Dynamic ]
  in
  Table.add_note t "dynamic self-scheduling disables owner-alignment in the compiler (soundness)";
  [ t ]

(* --- A4: cache size sweep --- *)

let abl_cache_size ?(small = false) ?jobs () =
  [
    knob_sweep ?jobs ~small ~title:"Ablation: miss rate vs cache size (TPI / HW)"
      ~schemes:[ Run.TPI; Run.HW ]
      ~label:(Printf.sprintf "%dKB")
      ~cfg:(fun kb -> { Config.default with cache_bytes = kb * 1024 })
      ~cell:tpi_hw_miss [ 2; 4; 8; 16; 64 ];
  ]

(* --- E0: workload characterization --- *)

let characterization ?(small = false) ?jobs:_ () =
  let t =
    Table.create ~title:"Benchmark characterization (evaluation-scale traces)"
      ~header:
        [ "bench"; "epochs"; "parallel"; "tasks"; "reads"; "writes"; "marked reads";
          "footprint"; "shared" ]
      ~aligns:
        (Table.Left :: List.init 8 (fun _ -> Table.Right))
      ()
  in
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) ->
      let prog = if small then e.build_small () else e.build () in
      let c = Run.compile prog in
      let s = Hscd_sim.Trace_stats.of_trace Config.default c.Run.packed_trace in
      Table.add_row t
        [
          e.name;
          Table.fi s.epochs;
          Table.fi s.parallel_epochs;
          Table.fi s.tasks;
          Table.fi s.reads;
          Table.fi s.writes;
          pct (Hscd_sim.Trace_stats.marked_read_fraction s);
          Table.fi s.footprint_words;
          pct (Hscd_sim.Trace_stats.sharing_fraction s);
        ])
    Hscd_workloads.Perfect.all;
  Table.add_note t "'marked reads' = Time-Read or Bypass; 'shared' = words touched by >1 processor";
  [ t ]

(* --- A5: associativity sweep --- *)

let abl_assoc ?(small = false) ?jobs () =
  let t =
    knob_sweep ?jobs ~small ~title:"Ablation: miss rate vs associativity (TPI / HW)"
      ~schemes:[ Run.TPI; Run.HW ]
      ~label:(Printf.sprintf "%d-way")
      ~cfg:(fun assoc -> { Config.default with assoc })
      ~cell:tpi_hw_miss [ 1; 2; 4 ]
  in
  Table.add_note t "on these working sets conflict misses are rare at 64KB: associativity moves little";
  [ t ]

(* --- X1: the HSCD family tree (extension) --- *)

let family ?(small = false) ?jobs () =
  let schemes = Run.extended_schemes in
  let results = Common.run_all ?jobs ~schemes ~small () in
  let t =
    Table.create
      ~title:"Extension: the compiler-directed family — INV [35], VC [14] vs SC/TPI (miss rate)"
      ~header:([ "bench" ] @ List.map Run.scheme_name schemes)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) schemes)
      ()
  in
  List.iter
    (fun (r : Common.bench_result) ->
      Table.add_row t
        (r.bench
        :: List.map (fun k -> pct (Metrics.miss_rate (Common.result_of r k).metrics)) schemes))
    results;
  Table.add_note t "INV invalidates everything at each boundary; VC tracks per-array versions;";
  Table.add_note t "TPI adds per-word epoch distances: each step recovers more locality.";
  [ t ]

(* --- X2: consistency model (the paper's footnote 11) --- *)

let consistency ?(small = false) ?jobs () =
  let weak = Common.run_all ?jobs ~schemes:[ Run.TPI; Run.HW ] ~small () in
  let seq =
    Common.run_all ?jobs ~cfg:{ Config.default with consistency = Config.Sequential }
      ~schemes:[ Run.TPI; Run.HW ] ~small ()
  in
  let t =
    Table.create ~title:"Extension: weak vs sequential consistency (execution cycles)"
      ~header:[ "bench"; "TPI weak"; "TPI seq"; "TPI slowdown"; "HW weak"; "HW seq"; "HW slowdown" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter2
    (fun (a : Common.bench_result) (b : Common.bench_result) ->
      let cyc r k = (Common.result_of r k).Hscd_sim.Engine.cycles in
      let slow k = Table.ff2 (float_of_int (cyc b k) /. float_of_int (max 1 (cyc a k))) in
      Table.add_row t
        [
          a.bench;
          Table.fi (cyc a Run.TPI); Table.fi (cyc b Run.TPI); slow Run.TPI;
          Table.fi (cyc a Run.HW); Table.fi (cyc b Run.HW); slow Run.HW;
        ])
    weak seq;
  Table.add_note t "paper, fn. 11: under SC both reads and writes stall on coherence transactions;";
  Table.add_note t "write-through TPI is hit harder than the write-back directory.";
  [ t ]

(* --- X3: task migration (Section 5) --- *)

let migration ?(small = false) ?jobs () =
  let t =
    knob_sweep ?jobs ~small
      ~title:"Extension: TPI under dynamic scheduling with mid-task migration (miss rate / migrations)"
      ~schemes:[ Run.TPI ]
      ~label:(Printf.sprintf "rate %.1f")
      ~cfg:(fun migration_rate ->
        { Config.default with scheduling = Config.Dynamic; migration_rate })
      ~cell:(fun r ->
        let res = Common.result_of r Run.TPI in
        Printf.sprintf "%s (%d)%s"
          (pct (Metrics.miss_rate res.metrics))
          res.metrics.migrations
          (if res.metrics.violations > 0 then "!" else ""))
      [ 0.0; 0.2; 0.5 ]
  in
  Table.add_note t "marks are compiled without owner-alignment, so migration stays coherent ('!' would flag a violation)";
  [ t ]

(* --- registry --- *)

let all : t list =
  [
    { id = "fig5"; title = "Storage overhead"; paper_ref = "Figure 5"; run = fig5 };
    { id = "fig8"; title = "Machine parameters"; paper_ref = "Figure 8"; run = fig8 };
    { id = "census"; title = "Compiler marking census"; paper_ref = "Section 2 statistics"; run = census };
    { id = "workloads"; title = "Benchmark characterization"; paper_ref = "Section 4 methodology"; run = characterization };
    { id = "fig11"; title = "Miss rates"; paper_ref = "Figure 11"; run = fig11 };
    { id = "fig12"; title = "Miss decomposition"; paper_ref = "Figure 12 area"; run = fig12 };
    { id = "latency"; title = "Average miss latency"; paper_ref = "Miss-latency table"; run = latency_table };
    { id = "traffic"; title = "Network traffic"; paper_ref = "Figure 13 area"; run = traffic };
    { id = "timetag"; title = "Timetag size sensitivity"; paper_ref = "Section 4"; run = timetag };
    { id = "exectime"; title = "Normalized execution time"; paper_ref = "Section 4"; run = exec_time };
    { id = "wcache"; title = "Write-cache ablation"; paper_ref = "refs [9,10]"; run = abl_write_cache };
    { id = "alignment"; title = "Owner-alignment ablation"; paper_ref = "ref [21]"; run = abl_alignment };
    { id = "scheduling"; title = "Scheduling ablation"; paper_ref = "Section 5"; run = abl_scheduling };
    { id = "cachesize"; title = "Cache size sweep"; paper_ref = "ablation"; run = abl_cache_size };
    { id = "assoc"; title = "Associativity sweep"; paper_ref = "ablation"; run = abl_assoc };
    { id = "family"; title = "HSCD scheme family"; paper_ref = "refs [35,14,2]"; run = family };
    { id = "consistency"; title = "Weak vs sequential consistency"; paper_ref = "footnote 11"; run = consistency };
    { id = "migration"; title = "Task migration"; paper_ref = "Section 5"; run = migration };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_and_print ?small ?jobs (e : t) =
  Printf.printf "### [%s] %s (%s)\n\n" e.id e.title e.paper_ref;
  List.iter Table.print (e.run ?small ?jobs ())
