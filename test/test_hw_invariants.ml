(** Property test of the full-map directory's internal invariants: after
    any sequence of reads/writes from random processors, the directory and
    the caches must agree —

    - a dirty line has exactly one cached copy, in state M, at a processor
      the presence vector names;
    - a clean line's sharers (states S) are all in the presence vector;
    - no two caches hold the same line with one of them in state M;
    - every cached value equals the memory image (values are kept eagerly
      current; the protocol governs timing, not values). *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Cache = Hscd_cache.Cache
module Hwdir = Hscd_coherence.Hwdir
module Memstate = Hscd_coherence.Memstate
module Bitset = Hscd_util.Bitset
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic

let cfg = { Config.default with processors = 4; cache_bytes = 256 (* tiny: evictions *) }

let memory_words = 128

type op = R of int * int | W of int * int * int  (* proc, addr(, value) *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (let* proc = int_range 0 3 in
       let* addr = int_range 0 (memory_words - 1) in
       let* w = bool in
       if w then map (fun v -> W (proc, addr, v)) (int_range 0 99) else return (R (proc, addr))))

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | R (p, a) -> Printf.sprintf "R%d@%d" p a
         | W (p, a, v) -> Printf.sprintf "W%d@%d=%d" p a v)
       ops)

let run_ops ops =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let hw = Hwdir.create cfg ~memory_words ~network:net ~traffic in
  List.iter
    (function
      | R (proc, addr) -> ignore (Hwdir.read hw ~proc ~addr ~array:0 ~mark:Event.Unmarked)
      | W (proc, addr, v) ->
        ignore (Hwdir.write hw ~proc ~addr ~array:0 ~value:v ~mark:Event.Normal_write))
    ops;
  hw

(* Caches holding memory line [l] in state S or M, with their frames. *)
let holders (hw : Hwdir.t) l =
  List.filter_map
    (fun p ->
      let c = hw.Hwdir.caches.(p) in
      let f = Cache.probe c (l * cfg.line_words) in
      if f >= 0 && (c.Cache.state.(f) = Hwdir.s_shared || c.Cache.state.(f) = Hwdir.s_modified)
      then Some (p, f)
      else None)
    [ 0; 1; 2; 3 ]

let check_invariants (hw : Hwdir.t) =
  let lines = Array.length hw.Hwdir.directory in
  let ok = ref true in
  for l = 0 to lines - 1 do
    let dir = hw.Hwdir.directory.(l) in
    let hs = holders hw l in
    let modified =
      List.filter (fun (p, f) -> hw.Hwdir.caches.(p).Cache.state.(f) = Hwdir.s_modified) hs
    in
    (* at most one M copy, and only when the directory says dirty *)
    if List.length modified > 1 then ok := false;
    if dir.Hwdir.dirty then begin
      match modified with
      | [ (p, _) ] -> if not (Bitset.mem dir.Hwdir.presence p) then ok := false
      | _ -> ok := false
    end
    else if modified <> [] then ok := false;
    (* every holder is known to the directory *)
    List.iter (fun (p, _) -> if not (Bitset.mem dir.Hwdir.presence p) then ok := false) hs;
    (* cached values match memory *)
    List.iter
      (fun (p, f) ->
        let c = hw.Hwdir.caches.(p) in
        for k = 0 to cfg.line_words - 1 do
          if
            Cache.word_valid c f k
            && c.Cache.value.(Cache.word c f k) <> Memstate.read hw.Hwdir.mem ((l * cfg.line_words) + k)
          then ok := false
        done)
      hs
  done;
  !ok

let qcheck_directory_invariants =
  QCheck.Test.make ~name:"full-map directory invariants hold under random traffic" ~count:300
    (QCheck.make gen_ops ~print:print_ops)
    (fun ops -> check_invariants (run_ops ops))

let qcheck_reads_return_last_write =
  QCheck.Test.make ~name:"directory reads always return the last written value" ~count:300
    (QCheck.make gen_ops ~print:print_ops)
    (fun ops ->
      let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
      let hw = Hwdir.create cfg ~memory_words ~network:net ~traffic in
      let shadow = Array.make memory_words 0 in
      List.for_all
        (function
          | W (proc, addr, v) ->
            shadow.(addr) <- v;
            ignore (Hwdir.write hw ~proc ~addr ~array:0 ~value:v ~mark:Event.Normal_write);
            true
          | R (proc, addr) ->
            (Hwdir.read hw ~proc ~addr ~array:0 ~mark:Event.Unmarked).Hscd_coherence.Scheme.value
            = shadow.(addr))
        ops)

(* Directed TPI regression: a Time-Read whose window spans a 4-bit
   timetag wrap must be classified as a two-phase-reset miss, never a hit
   on the recycled tag. *)
let test_tpi_timetag_wrap_reset () =
  let module Tpi = Hscd_coherence.Tpi in
  let module Scheme = Hscd_coherence.Scheme in
  let cfg = Config.validate { cfg with timetag_bits = 4 (* phase = 8 epochs *) } in
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let tpi = Tpi.create cfg ~memory_words ~network:net ~traffic in
  (* epoch 0: proc 0 caches addr 0 (fill stamps tag 0) *)
  let r0 = Tpi.read tpi ~proc:0 ~addr:0 ~array:0 ~mark:(Event.Time_read 0) in
  Alcotest.(check bool) "initial fill misses" true (r0.Scheme.cls <> Scheme.Hit);
  (* pre-wrap control: two epochs later the copy is still a Time-Read hit *)
  let stalls = Array.make cfg.Config.processors 0 in
  Tpi.epoch_boundary tpi ~stalls;
  Tpi.epoch_boundary tpi ~stalls;
  let pre = Tpi.read tpi ~proc:0 ~addr:0 ~array:0 ~mark:(Event.Time_read 2) in
  Alcotest.(check bool) "age-2 word hits inside a wide window" true
    (pre.Scheme.cls = Scheme.Hit);
  (* six more boundaries reach epoch 8 = one full phase: the reset wipes
     the (now age-8) word even though a naive 4-bit age comparison against
     a d >= 8 window would have called it a hit *)
  for _ = 1 to 6 do
    Tpi.epoch_boundary tpi ~stalls
  done;
  let post = Tpi.read tpi ~proc:0 ~addr:0 ~array:0 ~mark:(Event.Time_read 8) in
  Alcotest.(check bool) "wrapped word does not hit" true (post.Scheme.cls <> Scheme.Hit);
  Alcotest.(check bool)
    (Printf.sprintf "classified Reset_inv (got %s)" (Scheme.class_name post.Scheme.cls))
    true
    (post.Scheme.cls = Scheme.Reset_inv)

(* Differential oracle for the lazy two-phase reset: drive an eager
   (flash-invalidate scan) and a lazy (timetag-cutoff settle) TPI through
   the same deterministic script spanning two full phases — two reset
   firings and a complete timetag wrap — and require every access to
   return the same class, latency and value, every boundary to charge the
   same stalls, and the final stats to agree. Run for 3- and 4-bit tags
   so both the minimum phase and the wrap regression's shape are covered. *)
let test_tpi_lazy_matches_eager_reset () =
  let module Tpi = Hscd_coherence.Tpi in
  let module Scheme = Hscd_coherence.Scheme in
  let module Event = Hscd_arch.Event in
  List.iter
    (fun timetag_bits ->
      let base = Config.validate { cfg with timetag_bits } in
      let make eager =
        let c = { base with Config.tpi_eager_reset = eager } in
        let net = Kruskal_snir.create c and traffic = Traffic.create c in
        Tpi.create c ~memory_words ~network:net ~traffic
      in
      let lz = make false and eg = make true in
      let phase = 1 lsl (timetag_bits - 1) in
      let check what (a : Scheme.access_result) (b : Scheme.access_result) =
        if
          (a.Scheme.cls, a.Scheme.latency, a.Scheme.value)
          <> (b.Scheme.cls, b.Scheme.latency, b.Scheme.value)
        then
          Alcotest.failf "%s: lazy (%s,%d,%d) <> eager (%s,%d,%d)" what
            (Scheme.class_name a.Scheme.cls) a.Scheme.latency a.Scheme.value
            (Scheme.class_name b.Scheme.cls) b.Scheme.latency b.Scheme.value
      in
      let stalls_l = Array.make base.Config.processors 0
      and stalls_e = Array.make base.Config.processors 0 in
      (* 2*phase + 3 epochs: crosses two resets plus a full tag wrap *)
      for e = 0 to (2 * phase) + 2 do
        for p = 0 to base.Config.processors - 1 do
          let waddr = (e + (p * 16)) mod memory_words in
          ignore (Tpi.write lz ~proc:p ~addr:waddr ~array:0 ~value:e ~mark:Event.Normal_write);
          ignore (Tpi.write eg ~proc:p ~addr:waddr ~array:0 ~value:e ~mark:Event.Normal_write);
          let raddr = ((e * 3) + (p * 7)) mod memory_words in
          List.iter
            (fun mark ->
              check
                (Printf.sprintf "bits=%d epoch=%d proc=%d addr=%d" timetag_bits e p raddr)
                (Tpi.read lz ~proc:p ~addr:raddr ~array:0 ~mark)
                (Tpi.read eg ~proc:p ~addr:raddr ~array:0 ~mark))
            [ Event.Normal_read; Event.Time_read (e mod (phase + 1)); Event.Bypass_read ]
        done;
        Tpi.epoch_boundary lz ~stalls:stalls_l;
        Tpi.epoch_boundary eg ~stalls:stalls_e;
        Alcotest.(check (array int)) "boundary stalls agree" stalls_e stalls_l
      done;
      let sl = Tpi.stats lz and se = Tpi.stats eg in
      Alcotest.(check int)
        (Printf.sprintf "bits=%d reset count" timetag_bits)
        se.Scheme.two_phase_resets sl.Scheme.two_phase_resets;
      Alcotest.(check bool) "two resets actually fired" true (se.Scheme.two_phase_resets >= 2))
    [ 3; 4 ]

(* The same oracle end to end: with 3-bit tags (phase = 4 epochs) a
   jacobi run crosses several resets, so the whole Engine.result —
   metrics, classes, final-memory verdict — must be bit-identical between
   the lazy and the eager reset models. *)
let test_tpi_lazy_matches_eager_engine () =
  let module Run = Hscd_sim.Run in
  let cfg = Config.validate { Config.default with timetag_bits = 3 } in
  let eager_cfg = { cfg with Config.tpi_eager_reset = true } in
  let c = Run.compile ~cfg ~cache:false (Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:6 ()) in
  let lz = Run.simulate_packed ~cfg Run.TPI c.Run.packed_trace in
  let eg = Run.simulate_packed ~cfg:eager_cfg Run.TPI c.Run.packed_trace in
  Alcotest.(check bool) "resets fired" true
    (lz.Hscd_sim.Engine.metrics.Hscd_sim.Metrics.scheme_stats.Hscd_coherence.Scheme.two_phase_resets
    > 0);
  Alcotest.(check bool) "engine: lazy = eager" true (lz = eg)

(* Fetch history is per processor even though every processor starts on
   one shared all-zero map: a first fetch of a line another processor
   already fetched is still Cold, and a refetch after a conflict eviction
   is Replacement. Addresses 0 and 64 share set 0 of the direct-mapped
   64-word cache. *)
let test_first_fetch_classes () =
  let module Scheme = Hscd_coherence.Scheme in
  let run (type s) name (module S : Scheme.S with type t = s) =
    let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
    let m = S.create cfg ~memory_words ~network:net ~traffic in
    let expect what want ~proc ~addr =
      let got = (S.read m ~proc ~addr ~array:0 ~mark:Event.Normal_read).Scheme.cls in
      Alcotest.(check string) (name ^ ": " ^ what) (Scheme.class_name want)
        (Scheme.class_name got)
    in
    expect "proc 0 first fetch" Scheme.Cold ~proc:0 ~addr:0;
    expect "proc 1 first fetch of a line proc 0 fetched" Scheme.Cold ~proc:1 ~addr:0;
    expect "proc 1 conflicting line" Scheme.Cold ~proc:1 ~addr:64;
    expect "proc 1 refetch after eviction" Scheme.Replacement ~proc:1 ~addr:0;
    expect "proc 2 first fetch of a line proc 1 fetched" Scheme.Cold ~proc:2 ~addr:64
  in
  run "HW" (module Hwdir);
  run "TPI" (module Hscd_coherence.Tpi)

(* Directory entries are created by a line's first fetch; every other line
   shares the empty [absent] sentinel and has no sharers, even on a
   1024-processor machine. *)
let test_limitless_untouched_sharers () =
  let module Limitless = Hscd_coherence.Limitless in
  let cfg = Config.validate { cfg with processors = 1024 } in
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let l = Limitless.create cfg ~memory_words ~network:net ~traffic in
  Alcotest.(check int) "untouched line" 0 (Limitless.sharers l 0);
  List.iter
    (fun proc -> ignore (Limitless.read l ~proc ~addr:1 ~array:0 ~mark:Event.Unmarked))
    [ 0; 1; 1023 ];
  Alcotest.(check int) "three sharers of line 0" 3 (Limitless.sharers l 0);
  Alcotest.(check int) "line 1 still untouched" 0 (Limitless.sharers l cfg.Config.line_words);
  Alcotest.(check bool) "line 1 has no entry of its own" true
    (l.Limitless.hw.Hwdir.directory.(1) == Hwdir.absent);
  Alcotest.(check bool) "the sentinel stays empty" true
    (Bitset.is_empty Hwdir.absent.Hwdir.presence && not Hwdir.absent.Hwdir.dirty);
  (* a path that would write the entry of a never-fetched line is a
     protocol bug, reported rather than written to the shared sentinel *)
  match Hwdir.invalidate_sharers l.Limitless.hw ~writer:0 ~line_no:1 ~off:0 with
  | _ -> Alcotest.fail "invalidating an absent entry must raise"
  | exception Hscd_util.Hscd_error.Error e ->
    Alcotest.(check string) "kind" "internal" (Hscd_util.Hscd_error.kind_name e.kind)

(* Snapshot encodings of a P=4 HW machine over 16 memory words, captured
   from the eagerly built directory (one entry per line, one fetch map
   and one set table per processor, all made at creation). A lazily
   created entry, a shared empty set table and a shared fetch map must
   encode exactly as their eager counterparts did. *)
let fresh_hw_snapshot =
  "16 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 |0|0|0|0|"
  ^ String.concat "" (List.init 64 (fun _ -> ".|"))

let traced_hw_snapshot =
  "16 0 5 0 0 0 0 7 0 0 0 0 0 0 0 0 0 |0 1 0|3 1|0|0 0|0 1 0 4 1111|4 0 5 0 0 |4 0 0 0 0 \
   ||.|.|3 1 0 4 1111|4 0 0 0 0 |4 0 0 0 0 ||.|.|.|.|.|.|.|.|.|.|.|.|0 1 0 4 1111|4 0 5 0 0 \
   |4 0 0 0 0 ||.|.|.|.|.|.|.|.|.|.|.|.|.|.|.|.|1 3 0 4 1111|4 0 0 0 0 |4 0 0 0 0 \
   ||.|.|.|.|.|.|.|.|.|.|.|.|.|.|.|1 2 0 4 1111|4 0 0 7 0 |4 0 0 0 0 \
   ||.|.|.|.|.|.|.|.|.|.|.|.|.|.|"

let test_hw_snapshot_encoding () =
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let hw = Hwdir.create cfg ~memory_words:16 ~network:net ~traffic in
  Alcotest.(check string) "fresh machine" fresh_hw_snapshot (Hwdir.snapshot hw);
  let w proc addr value =
    ignore (Hwdir.write hw ~proc ~addr ~array:0 ~value ~mark:Event.Normal_write)
  and r proc addr = ignore (Hwdir.read hw ~proc ~addr ~array:0 ~mark:Event.Unmarked) in
  w 0 1 5;
  r 1 1;
  r 2 6;
  w 3 6 7;
  r 0 13;
  Alcotest.(check string) "after a short trace" traced_hw_snapshot (Hwdir.snapshot hw)

(* A remote write leaves the reader's frame tagged but invalid for access
   (s_inv_tagged); the reader's next miss on that line is classified from
   the frame's flag and refills the same frame in place: no eviction, no
   new set, and the line's other sharers are untouched. *)
let test_hw_inv_tagged_reuse () =
  let module Scheme = Hscd_coherence.Scheme in
  let net = Kruskal_snir.create cfg and traffic = Traffic.create cfg in
  let hw = Hwdir.create cfg ~memory_words ~network:net ~traffic in
  let c1 = hw.Hwdir.caches.(1) in
  let read proc addr = (Hwdir.read hw ~proc ~addr ~array:0 ~mark:Event.Unmarked).Scheme.cls in
  ignore (read 1 1);
  let f = Cache.probe c1 1 in
  let frames = c1.Cache.frames in
  (* proc 0 writes word 2, which proc 1 never used: false sharing *)
  ignore (Hwdir.write hw ~proc:0 ~addr:2 ~array:0 ~value:9 ~mark:Event.Normal_write);
  Alcotest.(check int) "frame tagged invalid" Hwdir.s_inv_tagged c1.Cache.state.(f);
  Alcotest.(check int) "tag kept" 0 c1.Cache.tag.(f);
  Alcotest.(check bool) "false-sharing flag" true (Cache.inv_false_sharing c1 f);
  Alcotest.(check string) "miss class" "false-share" (Scheme.class_name (read 1 2));
  Alcotest.(check int) "same frame refilled" f (Cache.probe c1 1);
  Alcotest.(check int) "no victim" (-1) c1.Cache.evicted_tag;
  Alcotest.(check int) "no frames added" frames c1.Cache.frames;
  Alcotest.(check int) "shared again" Hwdir.s_shared c1.Cache.state.(f);
  Alcotest.(check bool) "flag cleared by the refill" false (Cache.inv_false_sharing c1 f);
  Alcotest.(check int) "fresh value" 9 c1.Cache.value.(Cache.word c1 f 2);
  Alcotest.(check int) "no write-backs" 0 (Hwdir.stats hw).Scheme.writebacks;
  (* now proc 0 writes a word proc 1 used: true sharing *)
  ignore (Hwdir.write hw ~proc:0 ~addr:2 ~array:0 ~value:10 ~mark:Event.Normal_write);
  Alcotest.(check bool) "true-sharing flag" false (Cache.inv_false_sharing c1 f);
  Alcotest.(check string) "second miss class" "true-share" (Scheme.class_name (read 1 2))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_directory_invariants;
    QCheck_alcotest.to_alcotest qcheck_reads_return_last_write;
    Alcotest.test_case "TPI time-read across a 4-bit timetag wrap" `Quick
      test_tpi_timetag_wrap_reset;
    Alcotest.test_case "TPI lazy reset = eager reset (unit differential)" `Quick
      test_tpi_lazy_matches_eager_reset;
    Alcotest.test_case "TPI lazy reset = eager oracle, engine" `Quick
      test_tpi_lazy_matches_eager_engine;
    Alcotest.test_case "first fetch after another processor's is Cold" `Quick
      test_first_fetch_classes;
    Alcotest.test_case "LimitLESS sharers of an untouched line" `Quick
      test_limitless_untouched_sharers;
    Alcotest.test_case "HW snapshot encoding is unchanged" `Quick test_hw_snapshot_encoding;
    Alcotest.test_case "HW refills an invalidated frame in place" `Quick test_hw_inv_tagged_reuse;
  ]
