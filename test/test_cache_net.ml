(** Tests for the hardware substrates: cache structure, write buffers and
    the analytic network model. *)

module Config = Hscd_arch.Config
module Cache = Hscd_cache.Cache
module Write_buffer = Hscd_cache.Write_buffer
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic

let tiny_cfg =
  (* 4 sets x 1 way x 4-word lines = a 16-word cache, easy to overflow *)
  { Config.default with cache_bytes = 64; processors = 4 }

(* --- config --- *)

let test_config_derived () =
  let c = Config.default in
  Alcotest.(check int) "cache words" 16384 (Config.cache_words c);
  Alcotest.(check int) "cache lines" 4096 (Config.cache_lines c);
  Alcotest.(check int) "sets" 4096 (Config.sets c);
  Alcotest.(check int) "phase epochs" 128 (Config.phase_epochs c);
  Alcotest.(check int) "network stages" 2 (Config.network_stages c)

let test_config_validate () =
  Alcotest.check_raises "bad line" (Invalid_argument "Config: line_words must be a power of two")
    (fun () -> ignore (Config.validate { Config.default with line_words = 3 }));
  Alcotest.check_raises "bad tags" (Invalid_argument "Config: timetag_bits out of [2,30]")
    (fun () -> ignore (Config.validate { Config.default with timetag_bits = 1 }));
  Alcotest.check_raises "empty write cache"
    (Invalid_argument "Config: a write cache needs at least one entry")
    (fun () -> ignore (Config.validate { Config.default with write_buffer = Config.Write_cache 0 }));
  Alcotest.check_raises "long line" (Invalid_argument "Config: line_words must be at most 16")
    (fun () -> ignore (Config.validate { Config.default with line_words = 32 }))

(* --- cache --- *)

(* every test cache covers 64 memory lines *)
let memory_lines = 64

(* allocate the address's line and mark it resident, as a scheme's fill
   would *)
let fill c addr =
  let f = Cache.allocate c addr in
  c.Cache.state.(f) <- 1;
  f

let test_cache_hit_miss () =
  let c = Cache.create tiny_cfg ~memory_lines in
  Alcotest.(check int) "initial miss" (-1) (Cache.find c 5);
  let f = fill c 5 in
  c.Cache.value.(Cache.word c f 1) <- 42;
  c.Cache.bits.(f) <- c.Cache.bits.(f) lor (1 lsl 1);
  let hit = Cache.find c 5 in
  Alcotest.(check int) "hit returns the frame" f hit;
  Alcotest.(check int) "value" 42 c.Cache.value.(Cache.word c hit 1);
  Alcotest.(check bool) "word 1 valid" true (Cache.word_valid c hit 1);
  (* other word of the same line is resident but invalid *)
  Alcotest.(check int) "line resident" f (Cache.find c 6);
  Alcotest.(check bool) "word invalid" false (Cache.word_valid c f 2)

let test_cache_conflict_eviction () =
  let c = Cache.create tiny_cfg ~memory_lines in
  (* tiny cache has 4 sets; lines 0 and 4 conflict in set 0 *)
  let f0 = fill c 0 in
  Alcotest.(check int) "free frame: no victim" (-1) c.Cache.evicted_tag;
  let f4 = fill c (4 * 4) in
  Alcotest.(check int) "same frame reused" f0 f4;
  Alcotest.(check int) "victim tag" 0 c.Cache.evicted_tag;
  Alcotest.(check int) "victim state" 1 c.Cache.evicted_state;
  Alcotest.(check int) "old line gone" (-1) (Cache.find c 0);
  Alcotest.(check bool) "new line resident" true (Cache.find c 16 >= 0)

let test_cache_lru () =
  let cfg = { tiny_cfg with assoc = 2 } in
  let c = Cache.create cfg ~memory_lines in
  (* set 0 holds lines 0 and 2 (two ways); touching line 0 makes line 2 the
     LRU victim when line 4 arrives *)
  ignore (fill c 0);
  ignore (fill c 8);
  ignore (Cache.find c 0);
  ignore (fill c 16);
  Alcotest.(check int) "lru victim" 2 c.Cache.evicted_tag

(* At 4 ways the victim is the least recently used frame, whatever order
   the frames were filled in: hits reorder recency, probes do not. *)
let test_cache_lru_4way () =
  (* 256-byte cache, 4-word lines, 4 ways: 4 sets; lines 0, 4, 8, 12, 16
     all map to set 0 *)
  let cfg = Config.validate { tiny_cfg with cache_bytes = 256; assoc = 4 } in
  let c = Cache.create cfg ~memory_lines in
  let addr line = line * cfg.Config.line_words in
  List.iter (fun l -> ignore (fill c (addr l))) [ 0; 4; 8; 12 ];
  Alcotest.(check int) "one set of four frames" 4 c.Cache.frames;
  (* recency, oldest first: 8, 0, 12, 4 *)
  List.iter (fun l -> ignore (Cache.find c (addr l))) [ 0; 12; 4 ];
  ignore (Cache.probe c (addr 8));
  ignore (fill c (addr 16));
  Alcotest.(check int) "least recently used goes" 8 c.Cache.evicted_tag;
  ignore (fill c (addr 20));
  Alcotest.(check int) "then the next oldest" 0 c.Cache.evicted_tag;
  List.iter
    (fun l -> Alcotest.(check bool) (Printf.sprintf "line %d stays" l) true (Cache.find c (addr l) >= 0))
    [ 4; 12; 16; 20 ];
  Alcotest.(check int) "still one set of frames" 4 c.Cache.frames

let test_cache_resident_count () =
  let c = Cache.create tiny_cfg ~memory_lines in
  ignore (fill c 0);
  ignore (fill c 20);
  Alcotest.(check int) "resident" 2 (Cache.resident_lines c);
  Alcotest.(check int) "two sets allocated" 2 c.Cache.frames

(* The caches of a machine start on one shared table of unallocated sets;
   an allocation in one cache must give it a private table and leave
   every other cache, and the shared table, untouched. The table covers
   only the sets a memory line can map to. *)
let test_cache_array_aliasing () =
  let cfg = Config.validate { Config.default with processors = 1024 } in
  let caches = Cache.create_array cfg ~memory_lines:2048 cfg.Config.processors in
  Alcotest.(check int) "one cache per processor" 1024 (Array.length caches);
  Alcotest.(check int) "table sized by memory lines" (4 * 2048) (Bytes.length caches.(0).Cache.first);
  let unallocated c = c.Cache.frames = 0 && c.Cache.first == caches.(1023).Cache.first in
  let addr = 4242 in
  ignore (fill caches.(0) addr);
  Alcotest.(check bool) "cache 0 holds the line" true (Cache.probe caches.(0) addr >= 0);
  Alcotest.(check int) "cache 1 does not" (-1) (Cache.probe caches.(1) addr);
  Alcotest.(check int) "last cache does not" (-1) (Cache.probe caches.(1023) addr);
  Alcotest.(check bool) "cache 1 is still on the shared table" true (unallocated caches.(1));
  Alcotest.(check bool) "cache 0 has a private table" false
    (caches.(0).Cache.first == caches.(1).Cache.first);
  Alcotest.(check int) "cache 1 has no resident lines" 0 (Cache.resident_lines caches.(1));
  (* a second allocation elsewhere is private to its own cache too *)
  ignore (fill caches.(1) 0);
  Alcotest.(check int) "cache 0 does not see cache 1's line" (-1) (Cache.probe caches.(0) 0);
  Alcotest.(check bool) "cache 2 is still on the shared table" true (unallocated caches.(2));
  Alcotest.(check int) "the shared table stays empty" (-1) (Cache.first_frame caches.(2) 0)

let test_cache_line_limit () =
  Alcotest.check_raises "32-word lines"
    (Invalid_argument "Cache: line_words 32 exceeds the packed per-frame bits (at most 16)")
    (fun () -> ignore (Cache.create { Config.default with line_words = 32 } ~memory_lines))

(* --- write buffer --- *)

let test_plain_buffer () =
  let wb = Write_buffer.create Config.default in
  Alcotest.(check int) "every write costs a word" 1 (Write_buffer.write wb 5);
  Alcotest.(check int) "again" 1 (Write_buffer.write wb 5);
  Alcotest.(check int) "drain free" 0 (Write_buffer.drain wb)

let test_write_cache_coalesces () =
  let cfg = { Config.default with write_buffer = Config.Write_cache 2 } in
  let wb = Write_buffer.create cfg in
  Alcotest.(check int) "first write buffered" 0 (Write_buffer.write wb 1);
  Alcotest.(check int) "repeat coalesced" 0 (Write_buffer.write wb 1);
  Alcotest.(check int) "second addr buffered" 0 (Write_buffer.write wb 2);
  (* third distinct address evicts the LRU entry *)
  Alcotest.(check int) "overflow flushes one" 1 (Write_buffer.write wb 3);
  Alcotest.(check int) "coalesced count" 1 (Write_buffer.coalesced_writes wb);
  Alcotest.(check int) "drain flushes residents" 2 (Write_buffer.drain wb)

let qcheck_write_cache_conservation =
  (* every distinct address buffered is eventually flushed exactly once per
     residence: traffic(now) + drained = writes - coalesced *)
  QCheck.Test.make ~name:"write-cache conserves words" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_bound 10))
    (fun addrs ->
      let cfg = { Config.default with write_buffer = Config.Write_cache 4 } in
      let wb = Write_buffer.create cfg in
      let sent = List.fold_left (fun acc a -> acc + Write_buffer.write wb a) 0 addrs in
      let drained = Write_buffer.drain wb in
      sent + drained + Write_buffer.coalesced_writes wb = List.length addrs)

(* The write cache against a reference model: an association list of
   (addr, tick), most recent first, evicting the smallest tick. Every
   write's traffic, every drain and the coalesced count must agree. *)
let qcheck_write_cache_reference =
  QCheck.Test.make ~name:"write cache matches the list reference" ~count:300
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_range 0 80) (int_bound 12)))
    (fun (entries, addrs) ->
      let cfg = Config.validate { Config.default with write_buffer = Config.Write_cache entries } in
      let wb = Write_buffer.create cfg in
      let resident = ref [] and tick = ref 0 and coalesced = ref 0 in
      let reference a =
        incr tick;
        if List.mem_assoc a !resident then begin
          incr coalesced;
          resident := (a, !tick) :: List.remove_assoc a !resident;
          0
        end
        else if List.length !resident < entries then begin
          resident := (a, !tick) :: !resident;
          0
        end
        else begin
          let sorted = List.sort (fun (_, x) (_, y) -> compare y x) !resident in
          resident := (a, !tick) :: List.filteri (fun i _ -> i < List.length sorted - 1) sorted;
          1
        end
      in
      List.for_all
        (fun a ->
          let same = Write_buffer.write wb a = reference a in
          (* drain at every address divisible by 5, like an epoch boundary *)
          if a mod 5 = 0 then begin
            let n = List.length !resident in
            resident := [];
            same && Write_buffer.drain wb = n
          end
          else same)
        addrs
      && Write_buffer.coalesced_writes wb = !coalesced)

(* --- network --- *)

let test_network_unloaded () =
  let n = Kruskal_snir.create Config.default in
  Alcotest.(check int) "no excess at zero load" 0 (Kruskal_snir.round_trip_excess n)

let test_network_monotone () =
  let n = Kruskal_snir.create Config.default in
  let excess rho = Kruskal_snir.set_load n rho; Kruskal_snir.one_way_excess n in
  let e1 = excess 0.2 and e2 = excess 0.5 and e3 = excess 0.9 in
  Alcotest.(check bool) "monotone" true (e1 < e2 && e2 < e3);
  Alcotest.(check bool) "positive" true (e1 > 0.0)

let test_network_clamp () =
  let n = Kruskal_snir.create Config.default in
  Kruskal_snir.set_load n 5.0;
  Alcotest.(check bool) "clamped" true (Kruskal_snir.load n <= 0.95);
  Kruskal_snir.set_load n (-1.0);
  Alcotest.(check (float 1e-9)) "floor" 0.0 (Kruskal_snir.load n)

let test_traffic_window () =
  let t = Traffic.create Config.default in
  Traffic.add_read t 160;
  let rho = Traffic.window_load t ~now_cycle:10 in
  (* 160 words over 10 cycles and 16 processors = 1.0 *)
  Alcotest.(check (float 1e-9)) "load" 1.0 rho;
  Traffic.add_write t 32;
  let rho2 = Traffic.window_load t ~now_cycle:30 in
  Alcotest.(check (float 1e-9)) "windowed" 0.1 rho2;
  let s = Traffic.snapshot t in
  Alcotest.(check int) "reads" 160 s.Traffic.reads;
  Alcotest.(check int) "writes" 32 s.Traffic.writes

let suite =
  [
    Alcotest.test_case "config derived" `Quick test_config_derived;
    Alcotest.test_case "config validate" `Quick test_config_validate;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache eviction" `Quick test_cache_conflict_eviction;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "cache line size limit" `Quick test_cache_line_limit;
    Alcotest.test_case "cache lru victim at 4 ways" `Quick test_cache_lru_4way;
    Alcotest.test_case "cache residency" `Quick test_cache_resident_count;
    Alcotest.test_case "cache array shares no frames" `Quick test_cache_array_aliasing;
    Alcotest.test_case "plain buffer" `Quick test_plain_buffer;
    Alcotest.test_case "write cache coalesces" `Quick test_write_cache_coalesces;
    QCheck_alcotest.to_alcotest qcheck_write_cache_conservation;
    QCheck_alcotest.to_alcotest qcheck_write_cache_reference;
    Alcotest.test_case "network unloaded" `Quick test_network_unloaded;
    Alcotest.test_case "network monotone" `Quick test_network_monotone;
    Alcotest.test_case "network clamp" `Quick test_network_clamp;
    Alcotest.test_case "traffic window" `Quick test_traffic_window;
  ]
