(** INV — simple epoch invalidation, after Veidenbaum [35].

    The earliest practical compiler-directed scheme: caches may hold
    shared data freely *within* an epoch, and the entire cache is
    flash-invalidated at every epoch boundary. No per-reference compiler
    marks are needed (coherence is enforced on a program-region basis);
    only critical-section bypasses are honoured. All cross-epoch locality
    is lost — the historical baseline that motivated reference-level
    schemes like TPI. *)

module Cache = Hscd_cache.Cache
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = { w : Wt_common.t }

let name = "INV"

let create cfg ~memory_words ~network ~traffic =
  { w = Wt_common.create cfg ~memory_words ~network ~traffic }

let read t ~proc ~addr ~array:(_ : int) ~mark =
  let w = t.w in
  let off = addr land (w.cfg.line_words - 1) in
  match mark with
  | Event.Bypass_read ->
    Traffic.add_read w.traffic 1;
    Traffic.add_control w.traffic Scheme.control_words;
    Scheme.set_result w.res ~latency:(Wt_common.word_fetch_latency w)
      ~value:(Memstate.read w.Wt_common.mem addr) ~cls:Scheme.Uncached
  | Event.Normal_read | Event.Unmarked | Event.Time_read _ -> (
    match Cache.find w.caches.(proc) addr with
    | Some line when line.word_valid.(off) ->
      line.touched.(off) <- true;
      Scheme.set_result w.res ~latency:w.cfg.hit_cycles ~value:line.values.(off) ~cls:Scheme.Hit
    | probed ->
      let cls =
        match probed with
        (* a resident frame whose words were wiped by the boundary
           invalidation still carries its fetch history: classify against
           actual foreign writes (unnecessary misses are Conservative) *)
        | Some line -> Wt_common.stale_copy_class w ~proc ~line addr
        | None -> Wt_common.absent_class w ~proc addr
      in
      let line = Wt_common.fetch_line w ~proc ~addr ~ref_meta:0 ~other_meta:0 in
      Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
        ~value:line.values.(off) ~cls)

let write t ~proc ~addr ~array:(_ : int) ~value ~mark =
  match mark with
  | Event.Normal_write -> Wt_common.write_through t.w ~proc ~addr ~value ~meta:0 ~other_meta:0
  | Event.Bypass_write -> Wt_common.write_bypass t.w ~proc ~addr ~value ~meta:0

let epoch_boundary t ~stalls =
  let w = t.w in
  Wt_common.drain_buffers w;
  (* full-cache invalidation at every boundary; O(resident lines) via the
     cache's materialized-set walk *)
  let caches = w.Wt_common.caches in
  for p = 0 to Array.length caches - 1 do
    Cache.iter_lines caches.(p) (fun line ->
        Array.fill line.Cache.word_valid 0 (Array.length line.Cache.word_valid) false;
        (* these invalidations are the scheme's conservatism, not resets *)
        line.Cache.reset_invalidated <- false)
  done;
  Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.w.st

let memory_image t = t.w.Wt_common.mem.Memstate.values

let snapshot t =
  let b = Buffer.create 256 in
  Wt_common.snapshot_into b t.w;
  Buffer.contents b
