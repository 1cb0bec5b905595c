(** What one workload run measured, and how it is printed and stored. *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type settings = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (** tiny inputs for the build-time smoke test *)
}

type outcome = {
  workload : string;
  attempted : int;
  failed : int;
  correct : bool;
  ops : int;
  wall_s : float;
  digest : string;  (** order-independent digest of the checked results *)
  metrics : metric list;  (** end-to-end untraced, per-layer traced *)
  extra : metric list;  (** workload-specific layer numbers, result file only *)
  counts : (string * int) list;  (** operation counts, for provenance *)
}

let p50 lat = Measure.percentile 50.0 lat *. 1000.0
let p90 lat = Measure.percentile 90.0 lat *. 1000.0

(** The end-to-end metrics every workload reports. [lat] are per-op
    latencies in seconds, [accesses] the simulated shared-memory accesses
    completed in [wall] seconds. *)
let end_to_end ~setup_s ~lat ~wall ~accesses ~rss_mb =
  [
    m "setup_s" setup_s "s";
    m "op_ms_p50" (p50 lat) "ms";
    m "op_ms_p90" (p90 lat) "ms";
    m "ops_per_s" (float_of_int (List.length lat) /. wall) "1/s";
    m "sim_maccess_per_s" (accesses /. wall /. 1e6) "M/s";
    m "peak_rss_mb" rss_mb "MB";
  ]

type gc_counts = { minor_words : float; majors : int; top_heap_words : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; majors = s.Gc.major_collections; top_heap_words = s.Gc.top_heap_words }

(** The per-layer metrics every workload reports besides the probe's:
    compile-cache and GC counts per operation over the timed loop, and
    the cost of the spans themselves ([traced_lat] vs [plain_lat], ops of
    the same loop with and without spans). *)
let loop_layers ~ops ~generations_per_op ~cache_hits_per_op ~(gc0 : gc_counts) ~(gc1 : gc_counts)
    ~traced_lat ~plain_lat =
  let per_op x = x /. float_of_int (max 1 ops) in
  let t = Measure.median traced_lat and u = Measure.median plain_lat in
  [
    m "trace.generations_per_op" generations_per_op "count";
    m "trace.cache_hits_per_op" cache_hits_per_op "count";
    m "gc.minor_mwords_per_op" (per_op (gc1.minor_words -. gc0.minor_words) /. 1e6) "Mwords";
    m "gc.major_collections_per_op" (per_op (float_of_int (gc1.majors - gc0.majors))) "count";
    m "gc.top_heap_mb" (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) "MB";
    m "bench.trace_overhead_pct" ((t -. u) /. u *. 100.0) "%";
  ]

(** Whether [digest] is the [expected] one, if there is one; reports a
    mismatch on stderr. *)
let digest_ok ~workload ~expected digest =
  let ok = Option.fold ~none:true ~some:(String.equal digest) expected in
  if not ok then
    Printf.eprintf "ledger: %s digest %s, expected %s\n%!" workload digest (Option.value expected ~default:"none");
  ok

(** [failed] counts the operations that failed a check; callers count
    all [ops] as failed when the digest or the probe did. *)
let outcome ~workload ~ops ~wall ~digest ~failed ~metrics ~extra ~counts =
  { workload; attempted = ops; failed; correct = failed = 0; ops; wall_s = wall; digest; metrics; extra; counts }

(** Order-independent digest of a set of per-operation digests. *)
let combine digests = Digest.to_hex (Digest.string (String.concat "," (List.sort compare digests)))

let digest_value v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let metrics_json ms =
  Json.Obj (List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ])) ms)

(** The result line, printed last: correctness, counts and metrics only. *)
let summary_json ~correct ~attempted ~failed ms =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metrics_json ms);
    ]

let outcome_json ~traced ~seconds (o : outcome) =
  Json.Obj
    [
      ("name", Json.Str o.workload);
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("traced", Json.Bool traced);
      ("seconds", Json.Num seconds);
      ("ops", Json.Num (float_of_int o.ops));
      ("wall_s", Json.Num o.wall_s);
      ("digest", Json.Str o.digest);
      ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) o.counts));
      ("metrics", metrics_json o.metrics);
      ("extra", metrics_json o.extra);
    ]

let print_metrics workload ms =
  List.iter (fun x -> Printf.printf "%-16s %-36s %16.6g %s\n" workload x.name x.value x.unit_) ms

(* In a traced run, even rounds of [batch] operations (one round holds
   the workload's whole input mix) run inside spans and odd rounds
   without, so the two halves of one loop give the spans' own cost. *)
let traced_op (s : settings) ~batch i = s.traced && i / batch mod 2 = 0

(** At least two rounds when traced, so both halves exist. *)
let min_ops (s : settings) ~batch n = if s.traced then max n (2 * batch) else n

let span on ?op name f = if on then Span.with_ ?op name f else f ()

(** Latencies of the traced and of the plain rounds. *)
let split_lat (s : settings) ~batch lat =
  let t, u = List.partition (fun (i, _) -> traced_op s ~batch i) (List.mapi (fun i x -> (i, x)) lat) in
  (List.map snd t, List.map snd u)
