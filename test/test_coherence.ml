(** Unit tests driving the coherence schemes directly through their
    read/write APIs: TPI timetag semantics including the two-phase reset,
    SC forced fetches, HW MSI transitions with Tullsen–Eggers
    classification, the write-history tracker, and the Fig-5 formulas. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme
module Memstate = Hscd_coherence.Memstate
module Tpi = Hscd_coherence.Tpi
module Sc = Hscd_coherence.Sc
module Hwdir = Hscd_coherence.Hwdir
module Base = Hscd_coherence.Base
module Limitless = Hscd_coherence.Limitless
module Overhead = Hscd_coherence.Overhead
module Fetch_map = Hscd_coherence.Fetch_map
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic

let cls = Alcotest.testable (Fmt.of_to_string Scheme.class_name) ( = )

let cfg = { Config.default with processors = 4; timetag_bits = 3 (* phase = 4 epochs *) }

(* throwaway stall scratch for boundary calls whose stalls don't matter *)
let scratch () = Array.make cfg.Config.processors 0

let make_tpi () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  (Tpi.create cfg ~memory_words:256 ~network:net ~traffic, traffic)

let make_sc () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  (Sc.create cfg ~memory_words:256 ~network:net ~traffic, traffic)

let make_hw () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  (Hwdir.create cfg ~memory_words:256 ~network:net ~traffic, traffic)

(* --- memstate --- *)

let test_memstate_foreign () =
  let m = Memstate.create ~words:8 in
  Alcotest.(check int) "never written" 0 (Memstate.foreign_seq m ~proc:0 3);
  Memstate.write m ~proc:0 3 10;
  Alcotest.(check int) "own write invisible" 0 (Memstate.foreign_seq m ~proc:0 3);
  Alcotest.(check bool) "foreign sees it" true (Memstate.foreign_seq m ~proc:1 3 > 0);
  let s1 = m.Memstate.seq in
  Memstate.write m ~proc:1 3 20;
  Alcotest.(check bool) "proc0 now sees foreign" true
    (Memstate.foreign_write_since m ~proc:0 ~since:s1 3);
  Memstate.write m ~proc:1 3 30;
  (* proc1 asking about others must see proc0's old write, not its own *)
  Alcotest.(check int) "prev other" 1 (Memstate.foreign_seq m ~proc:1 3);
  Alcotest.(check int) "value" 30 (Memstate.read m 3)

let qcheck_memstate_vs_reference =
  (* compare foreign_seq against a full-history reference *)
  QCheck.Test.make ~name:"memstate foreign_seq matches full history" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 3)))
    (fun writes ->
      let m = Memstate.create ~words:4 in
      let history = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (proc, addr) ->
          Memstate.write m ~proc addr i;
          history := (i + 1, proc, addr) :: !history;
          (* check all (proc, addr) queries *)
          for q = 0 to 2 do
            for a = 0 to 3 do
              let expected =
                List.fold_left
                  (fun acc (seq, p, ad) -> if ad = a && p <> q then max acc seq else acc)
                  0 !history
              in
              if Memstate.foreign_seq m ~proc:q a <> expected then ok := false
            done
          done)
        writes;
      !ok)

(* --- TPI --- *)

let test_tpi_basic_reuse () =
  let tpi, _ = make_tpi () in
  (* proc 0 writes a word in epoch 0 *)
  ignore (Tpi.write tpi ~proc:0 ~addr:5 ~array:0 ~value:7 ~mark:Event.Normal_write);
  (* same epoch, Time-Read(0) hits own write *)
  let r = Tpi.read tpi ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 0) in
  Alcotest.check cls "own write hit" Scheme.Hit r.cls;
  Alcotest.(check int) "value" 7 r.value;
  (* next epoch, Time-Read(0) is too strict, Time-Read(1) hits *)
  Tpi.epoch_boundary tpi ~stalls:(scratch ());
  Alcotest.check cls "d=0 misses" Scheme.Conservative
    (Tpi.read tpi ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 0)).cls;
  Alcotest.check cls "d=1 hits (refetched word is fresh)" Scheme.Hit
    (Tpi.read tpi ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 1)).cls

let test_tpi_line_fill_tag_rule () =
  let tpi, _ = make_tpi () in
  (* miss on word 4 fetches the whole line; companion words get epoch-1 *)
  Tpi.epoch_boundary tpi ~stalls:(scratch ()) (* epoch = 1 so epoch-1 = 0 is valid *);
  ignore (Tpi.read tpi ~proc:0 ~addr:4 ~array:0 ~mark:Event.Normal_read);
  (* companion word: Time-Read(0) must MISS (tag = epoch-1) *)
  Alcotest.check cls "companion too old for d=0" Scheme.Conservative
    (Tpi.read tpi ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 0)).cls;
  (* but Normal read hits it *)
  Alcotest.check cls "companion normal hit" Scheme.Hit
    (Tpi.read tpi ~proc:0 ~addr:6 ~array:0 ~mark:Event.Normal_read).cls

let test_tpi_staleness_detected () =
  let tpi, _ = make_tpi () in
  ignore (Tpi.read tpi ~proc:0 ~addr:8 ~array:0 ~mark:Event.Normal_read);
  Tpi.epoch_boundary tpi ~stalls:(scratch ());
  (* proc 1 writes the word in the next epoch *)
  ignore (Tpi.write tpi ~proc:1 ~addr:8 ~array:0 ~value:99 ~mark:Event.Normal_write);
  Tpi.epoch_boundary tpi ~stalls:(scratch ());
  (* proc 0's copy is stale; Time-Read(1) rejects it and fetches fresh *)
  let r = Tpi.read tpi ~proc:0 ~addr:8 ~array:0 ~mark:(Event.Time_read 1) in
  Alcotest.check cls "true sharing" Scheme.True_sharing r.cls;
  Alcotest.(check int) "fresh value" 99 r.value

let test_tpi_two_phase_reset () =
  let tpi, _ = make_tpi () in
  ignore (Tpi.write tpi ~proc:0 ~addr:12 ~array:0 ~value:1 ~mark:Event.Normal_write);
  (* phase = 4 epochs for 3-bit tags: after 4 boundaries a reset fires *)
  let stalled = ref 0 in
  let stalls = scratch () in
  for _ = 1 to 4 do
    Tpi.epoch_boundary tpi ~stalls;
    stalled := !stalled + stalls.(0)
  done;
  Alcotest.(check int) "reset stall charged" cfg.two_phase_reset_cycles !stalled;
  Alcotest.(check int) "one reset" 1 (Tpi.stats tpi).two_phase_resets;
  (* the word was invalidated by the reset: even Normal misses *)
  let r = Tpi.read tpi ~proc:0 ~addr:12 ~array:0 ~mark:Event.Normal_read in
  Alcotest.check cls "reset miss" Scheme.Reset_inv r.cls

let test_tpi_bypass_read_uncached () =
  let tpi, traffic = make_tpi () in
  let r = Tpi.read tpi ~proc:2 ~addr:30 ~array:0 ~mark:Event.Bypass_read in
  Alcotest.check cls "uncached" Scheme.Uncached r.cls;
  Alcotest.(check int) "one word of read traffic" 1 (Traffic.snapshot traffic).Traffic.reads;
  (* nothing was allocated *)
  let r2 = Tpi.read tpi ~proc:2 ~addr:30 ~array:0 ~mark:Event.Normal_read in
  Alcotest.check cls "still cold" Scheme.Cold r2.cls

let test_tpi_bypass_write_updates_copy () =
  let tpi, _ = make_tpi () in
  ignore (Tpi.read tpi ~proc:0 ~addr:16 ~array:0 ~mark:Event.Normal_read);
  ignore (Tpi.write tpi ~proc:0 ~addr:16 ~array:0 ~value:5 ~mark:Event.Bypass_write);
  let r = Tpi.read tpi ~proc:0 ~addr:16 ~array:0 ~mark:(Event.Time_read 0) in
  Alcotest.check cls "own copy updated" Scheme.Hit r.cls;
  Alcotest.(check int) "new value" 5 r.value

let test_tpi_replacement_class () =
  let small = { cfg with cache_bytes = 64 } (* 4 lines *) in
  let net = Kruskal_snir.create small and traffic = Traffic.create small in
  let tpi = Tpi.create small ~memory_words:256 ~network:net ~traffic in
  ignore (Tpi.read tpi ~proc:0 ~addr:0 ~array:0 ~mark:Event.Normal_read);
  (* conflicting line (same set, 4 sets) evicts line 0 *)
  ignore (Tpi.read tpi ~proc:0 ~addr:16 ~array:0 ~mark:Event.Normal_read);
  let r = Tpi.read tpi ~proc:0 ~addr:0 ~array:0 ~mark:Event.Normal_read in
  Alcotest.check cls "replacement" Scheme.Replacement r.cls

(* --- SC --- *)

let test_sc_time_read_always_fetches () =
  let sc, _ = make_sc () in
  ignore (Sc.read sc ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 3));
  (* second time: still a miss (no timetags to check), and it is classed
     conservative because the data was never foreign-written *)
  let r = Sc.read sc ~proc:0 ~addr:5 ~array:0 ~mark:(Event.Time_read 3) in
  Alcotest.check cls "forced fetch" Scheme.Conservative r.cls;
  (* Normal reads enjoy the refreshed line *)
  Alcotest.check cls "normal hit" Scheme.Hit (Sc.read sc ~proc:0 ~addr:6 ~array:0 ~mark:Event.Normal_read).cls

let test_sc_epoch_boundary_noop () =
  let sc, _ = make_sc () in
  ignore (Sc.read sc ~proc:0 ~addr:5 ~array:0 ~mark:Event.Normal_read);
  Sc.epoch_boundary sc ~stalls:(scratch ());
  Alcotest.check cls "survives boundary" Scheme.Hit
    (Sc.read sc ~proc:0 ~addr:5 ~array:0 ~mark:Event.Normal_read).cls

(* --- HW --- *)

let test_hw_read_write_transitions () =
  let hw, _ = make_hw () in
  (* cold read -> S *)
  Alcotest.check cls "cold" Scheme.Cold (Hwdir.read hw ~proc:0 ~addr:5 ~array:0 ~mark:Event.Unmarked).cls;
  Alcotest.check cls "hit in S" Scheme.Hit (Hwdir.read hw ~proc:0 ~addr:5 ~array:0 ~mark:Event.Unmarked).cls;
  (* upgrade S -> M on write *)
  Alcotest.check cls "upgrade hit" Scheme.Hit
    (Hwdir.write hw ~proc:0 ~addr:5 ~array:0 ~value:1 ~mark:Event.Normal_write).cls;
  Alcotest.(check int) "one upgrade" 1 (Hwdir.stats hw).upgrades;
  Alcotest.check cls "hit in M" Scheme.Hit
    (Hwdir.write hw ~proc:0 ~addr:5 ~array:0 ~value:2 ~mark:Event.Normal_write).cls

let test_hw_invalidation_true_sharing () =
  let hw, _ = make_hw () in
  ignore (Hwdir.read hw ~proc:0 ~addr:5 ~array:0 ~mark:Event.Unmarked) (* proc 0 uses word 5 *);
  ignore (Hwdir.write hw ~proc:1 ~addr:5 ~array:0 ~value:9 ~mark:Event.Normal_write);
  Alcotest.(check int) "invalidation sent" 1 (Hwdir.stats hw).invalidations_sent;
  let r = Hwdir.read hw ~proc:0 ~addr:5 ~array:0 ~mark:Event.Unmarked in
  Alcotest.check cls "true sharing miss" Scheme.True_sharing r.cls;
  Alcotest.(check int) "sees new value" 9 r.value

let test_hw_false_sharing () =
  let hw, _ = make_hw () in
  ignore (Hwdir.read hw ~proc:0 ~addr:4 ~array:0 ~mark:Event.Unmarked) (* proc 0 uses word 4 only *);
  (* proc 1 writes a DIFFERENT word of the same line *)
  ignore (Hwdir.write hw ~proc:1 ~addr:5 ~array:0 ~value:9 ~mark:Event.Normal_write);
  let r = Hwdir.read hw ~proc:0 ~addr:4 ~array:0 ~mark:Event.Unmarked in
  Alcotest.check cls "false sharing miss" Scheme.False_sharing r.cls

let test_hw_dirty_recall () =
  let hw, traffic = make_hw () in
  ignore (Hwdir.write hw ~proc:0 ~addr:8 ~array:0 ~value:3 ~mark:Event.Normal_write) (* M at proc 0 *);
  let before = (Traffic.snapshot traffic).Traffic.writes in
  let r = Hwdir.read hw ~proc:1 ~addr:8 ~array:0 ~mark:Event.Unmarked in
  Alcotest.(check int) "recall happened" 1 (Hwdir.stats hw).dirty_recalls;
  Alcotest.(check bool) "owner wrote back" true ((Traffic.snapshot traffic).Traffic.writes > before);
  Alcotest.(check int) "forwarded value" 3 r.value;
  (* the line is now shared by both; proc 0 still hits *)
  Alcotest.check cls "owner downgraded to S" Scheme.Hit
    (Hwdir.read hw ~proc:0 ~addr:8 ~array:0 ~mark:Event.Unmarked).cls

let test_hw_writeback_on_eviction () =
  let small = { cfg with cache_bytes = 64 } in
  let net = Kruskal_snir.create small and traffic = Traffic.create small in
  let hw = Hwdir.create small ~memory_words:256 ~network:net ~traffic in
  ignore (Hwdir.write hw ~proc:0 ~addr:0 ~array:0 ~value:1 ~mark:Event.Normal_write);
  ignore (Hwdir.read hw ~proc:0 ~addr:16 ~array:0 ~mark:Event.Unmarked) (* conflicts, evicts dirty line *);
  Alcotest.(check int) "writeback counted" 1 (Hwdir.stats hw).writebacks

(* --- BASE and LimitLESS --- *)

let test_base_always_remote () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let b = Base.create cfg ~memory_words:64 ~network:net ~traffic in
  ignore (Base.write b ~proc:0 ~addr:3 ~array:0 ~value:4 ~mark:Event.Normal_write);
  let r = Base.read b ~proc:1 ~addr:3 ~array:0 ~mark:Event.Unmarked in
  Alcotest.check cls "uncached" Scheme.Uncached r.cls;
  Alcotest.(check int) "value through memory" 4 r.value;
  Alcotest.(check bool) "latency is remote" true (r.latency >= cfg.miss_base_cycles)

let test_limitless_trap_latency () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let l = Limitless.create cfg ~memory_words:64 ~network:net ~traffic in
  (* fewer sharers than pointers: same as HW *)
  let r = Limitless.read l ~proc:0 ~addr:4 ~array:0 ~mark:Event.Unmarked in
  Alcotest.check cls "cold" Scheme.Cold r.cls

(* --- overhead --- *)

let test_overhead_fig5_totals () =
  let p = Overhead.paper_default in
  let mb bits = Overhead.bits_to_bytes bits / (1024 * 1024) in
  Alcotest.(check int) "full-map SRAM 4MB" 4 (mb (Overhead.full_map p).cache_sram_bits);
  Alcotest.(check int) "TPI SRAM 64MB" 64 (mb (Overhead.tpi p).cache_sram_bits);
  Alcotest.(check int) "TPI no DRAM" 0 (Overhead.tpi p).memory_dram_bits;
  let gb bits = Overhead.bits_to_bytes bits / (1024 * 1024 * 1024) in
  Alcotest.(check int) "full-map DRAM ~64GB" 64 (gb (Overhead.full_map p).memory_dram_bits);
  Alcotest.(check bool) "LimitLESS DRAM far smaller" true
    ((Overhead.limitless p).memory_dram_bits * 8 < (Overhead.full_map p).memory_dram_bits)

let test_overhead_scaling () =
  let p = Overhead.paper_default in
  let bigger = { p with processors = 2048 } in
  (* full-map DRAM grows quadratically with P, TPI SRAM linearly *)
  let fm_ratio =
    float_of_int (Overhead.full_map bigger).memory_dram_bits
    /. float_of_int (Overhead.full_map p).memory_dram_bits
  in
  let tpi_ratio =
    float_of_int (Overhead.tpi bigger).cache_sram_bits
    /. float_of_int (Overhead.tpi p).cache_sram_bits
  in
  Alcotest.(check bool) "quadratic vs linear" true (fm_ratio > 3.9 && tpi_ratio < 2.1)

(* one bit per line: marks at and around byte boundaries, and at the last
   line of a map whose length is not a multiple of 8, set exactly their
   own bit, for their own processor only *)
let test_fetch_map_bits () =
  let lines = 37 in
  let t = Fetch_map.create ~processors:4 ~lines in
  let marked = [ 0; 7; 8; 15; 16; 31; 32; 36 ] in
  List.iter (Fetch_map.mark t ~proc:2) marked;
  Fetch_map.mark t ~proc:2 8;
  for line = 0 to lines - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "proc 2 line %d" line)
      (List.mem line marked)
      (Fetch_map.was_fetched t ~proc:2 line);
    List.iter
      (fun proc ->
        Alcotest.(check bool) (Printf.sprintf "proc %d line %d" proc line) false
          (Fetch_map.was_fetched t ~proc line))
      [ 0; 1; 3 ]
  done

(* processors that never fetch keep sharing the one zero map: marking one
   processor adds exactly one map of ceil(lines/8) bytes to the heap *)
let test_fetch_map_shares_zero () =
  let lines = 1000 in
  let t = Fetch_map.create ~processors:1024 ~lines in
  let words () = Obj.reachable_words (Obj.repr t) in
  let map_words = Obj.reachable_words (Obj.repr (Bytes.create ((lines + 7) / 8))) in
  let w0 = words () in
  Fetch_map.mark t ~proc:5 999;
  Fetch_map.mark t ~proc:5 0;
  Alcotest.(check int) "one processor's map" (w0 + map_words) (words ());
  Fetch_map.mark t ~proc:700 63;
  Alcotest.(check int) "two processors' maps" (w0 + (2 * map_words)) (words ());
  Alcotest.(check bool) "others unmarked" false (Fetch_map.was_fetched t ~proc:6 999)

let suite =
  [
    Alcotest.test_case "memstate foreign tracking" `Quick test_memstate_foreign;
    QCheck_alcotest.to_alcotest qcheck_memstate_vs_reference;
    Alcotest.test_case "tpi reuse across epochs" `Quick test_tpi_basic_reuse;
    Alcotest.test_case "tpi line-fill tag rule" `Quick test_tpi_line_fill_tag_rule;
    Alcotest.test_case "tpi staleness detected" `Quick test_tpi_staleness_detected;
    Alcotest.test_case "tpi two-phase reset" `Quick test_tpi_two_phase_reset;
    Alcotest.test_case "tpi bypass read" `Quick test_tpi_bypass_read_uncached;
    Alcotest.test_case "tpi bypass write" `Quick test_tpi_bypass_write_updates_copy;
    Alcotest.test_case "tpi replacement class" `Quick test_tpi_replacement_class;
    Alcotest.test_case "sc forced fetch" `Quick test_sc_time_read_always_fetches;
    Alcotest.test_case "sc epoch boundary" `Quick test_sc_epoch_boundary_noop;
    Alcotest.test_case "hw transitions" `Quick test_hw_read_write_transitions;
    Alcotest.test_case "hw true sharing" `Quick test_hw_invalidation_true_sharing;
    Alcotest.test_case "hw false sharing" `Quick test_hw_false_sharing;
    Alcotest.test_case "hw dirty recall" `Quick test_hw_dirty_recall;
    Alcotest.test_case "hw writeback on eviction" `Quick test_hw_writeback_on_eviction;
    Alcotest.test_case "base remote" `Quick test_base_always_remote;
    Alcotest.test_case "limitless" `Quick test_limitless_trap_latency;
    Alcotest.test_case "fig5 totals" `Quick test_overhead_fig5_totals;
    Alcotest.test_case "overhead scaling" `Quick test_overhead_scaling;
    Alcotest.test_case "fetch map: one bit per line" `Quick test_fetch_map_bits;
    Alcotest.test_case "fetch map: shared zero map" `Quick test_fetch_map_shares_zero;
  ]
