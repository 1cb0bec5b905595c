(** Tests for the hardware substrates: cache structure, write buffers and
    the analytic network model. *)

module Config = Hscd_arch.Config
module Addr = Hscd_arch.Addr
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
    (fun () -> ignore (Config.validate { Config.default with timetag_bits = 1 }))

let test_addr () =
  let a = Addr.of_config Config.default in
  Alcotest.(check int) "line" 3 (Addr.line a 13);
  Alcotest.(check int) "offset" 1 (Addr.offset_in_line a 13);
  Alcotest.(check int) "home" (3 mod 16) (Addr.home a 13);
  Alcotest.(check (list int)) "words" [ 12; 13; 14; 15 ] (Addr.words_of_line a 3);
  Alcotest.(check bool) "local" true (Addr.is_local a ~proc:3 13)

(* --- cache --- *)

let test_cache_hit_miss () =
  let c = Cache.create tiny_cfg in
  Alcotest.(check bool) "initial miss" true (Cache.find c 5 = None);
  let line = Cache.allocate c ~on_evict:(fun _ -> ()) 5 in
  line.Cache.state <- 1;
  line.Cache.values.(1) <- 42;
  line.Cache.word_valid.(1) <- true;
  (match Cache.find c 5 with
  | Some l -> Alcotest.(check int) "value" 42 l.Cache.values.(1)
  | None -> Alcotest.fail "expected hit");
  (* other word of the same line is resident but invalid *)
  (match Cache.find c 6 with
  | Some l -> Alcotest.(check bool) "word invalid" false l.Cache.word_valid.(2)
  | None -> Alcotest.fail "line should be resident")

let test_cache_conflict_eviction () =
  let c = Cache.create tiny_cfg in
  (* tiny cache has 4 sets; lines 0 and 4 conflict in set 0 *)
  let l0 = Cache.allocate c ~on_evict:(fun _ -> ()) 0 in
  l0.Cache.state <- 1;
  let evicted = ref [] in
  let l4 = Cache.allocate c ~on_evict:(fun v -> evicted := v.Cache.tag :: !evicted) (4 * 4) in
  l4.Cache.state <- 1;
  Alcotest.(check (list int)) "victim tag" [ 0 ] !evicted;
  Alcotest.(check bool) "old line gone" true (Cache.find c 0 = None);
  Alcotest.(check bool) "new line resident" true (Cache.find c 16 <> None)

let test_cache_lru () =
  let cfg = { tiny_cfg with assoc = 2 } in
  let c = Cache.create cfg in
  (* set 0 holds lines 0 and 2 (two ways); touching line 0 makes line 2 the
     LRU victim when line 4 arrives *)
  (Cache.allocate c ~on_evict:(fun _ -> ()) 0).Cache.state <- 1;
  (Cache.allocate c ~on_evict:(fun _ -> ()) 8).Cache.state <- 1;
  ignore (Cache.find c 0);
  let evicted = ref (-1) in
  (Cache.allocate c ~on_evict:(fun v -> evicted := v.Cache.tag) 16).Cache.state <- 1;
  Alcotest.(check int) "lru victim" 2 !evicted

let test_cache_resident_count () =
  let c = Cache.create tiny_cfg in
  (Cache.allocate c ~on_evict:(fun _ -> ()) 0).Cache.state <- 1;
  (Cache.allocate c ~on_evict:(fun _ -> ()) 20).Cache.state <- 1;
  Alcotest.(check int) "resident" 2 (Cache.resident_lines c)

(* The caches of a machine start on one shared table of empty sets; an
   allocation in one cache must give it a private table and leave every
   other cache, and the shared table, untouched. *)
let test_cache_array_aliasing () =
  let cfg = Config.validate { Config.default with processors = 1024 } in
  let caches = Cache.create_array cfg cfg.Config.processors in
  Alcotest.(check int) "one cache per processor" 1024 (Array.length caches);
  let addr = 4242 in
  let l = Cache.allocate caches.(0) ~on_evict:(fun _ -> ()) addr in
  l.Cache.state <- 1;
  Alcotest.(check bool) "cache 0 holds the line" true (Cache.probe caches.(0) addr <> None);
  Alcotest.(check bool) "cache 1 does not" true (Cache.probe caches.(1) addr = None);
  Alcotest.(check bool) "last cache does not" true (Cache.probe caches.(1023) addr = None);
  Alcotest.(check bool) "cache 1's sets are all unmaterialized" true
    (Array.for_all (fun set -> Array.length set = 0) (Cache.frame_sets caches.(1)));
  Alcotest.(check int) "cache 1 has no resident lines" 0 (Cache.resident_lines caches.(1));
  (* a second allocation elsewhere is private to its own cache too *)
  (Cache.allocate caches.(1) ~on_evict:(fun _ -> ()) 0).Cache.state <- 1;
  Alcotest.(check bool) "cache 0 does not see cache 1's line" true
    (Cache.probe caches.(0) 0 = None);
  Alcotest.(check bool) "cache 2's sets are still all unmaterialized" true
    (Array.for_all (fun set -> Array.length set = 0) (Cache.frame_sets caches.(2)))

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
    Alcotest.test_case "addressing" `Quick test_addr;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache eviction" `Quick test_cache_conflict_eviction;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "cache residency" `Quick test_cache_resident_count;
    Alcotest.test_case "cache array shares no frames" `Quick test_cache_array_aliasing;
    Alcotest.test_case "plain buffer" `Quick test_plain_buffer;
    Alcotest.test_case "write cache coalesces" `Quick test_write_cache_coalesces;
    QCheck_alcotest.to_alcotest qcheck_write_cache_conservation;
    Alcotest.test_case "network unloaded" `Quick test_network_unloaded;
    Alcotest.test_case "network monotone" `Quick test_network_monotone;
    Alcotest.test_case "network clamp" `Quick test_network_clamp;
    Alcotest.test_case "traffic window" `Quick test_traffic_window;
  ]
