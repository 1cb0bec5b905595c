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
  | Event.Normal_read | Event.Unmarked | Event.Time_read _ ->
    let c = w.caches.(proc) in
    let f = Cache.find c addr in
    if f >= 0 && c.bits.(f) land (1 lsl off) <> 0 then begin
      c.bits.(f) <- c.bits.(f) lor (1 lsl (Cache.touched_shift + off));
      Scheme.set_result w.res ~latency:w.cfg.hit_cycles
        ~value:c.value.((f * w.cfg.line_words) + off) ~cls:Scheme.Hit
    end
    else begin
      let cls =
        (* a resident frame whose words were wiped by the boundary
           invalidation still carries its fetch history: classify against
           actual foreign writes (unnecessary misses are Conservative) *)
        if f >= 0 then Wt_common.stale_copy_class w ~proc ~frame:f addr
        else Wt_common.absent_class w ~proc addr
      in
      let f = Wt_common.fetch_line w ~proc ~addr ~ref_meta:0 ~other_meta:0 in
      Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
        ~value:c.value.((f * w.cfg.line_words) + off) ~cls
    end

let write t ~proc ~addr ~array:(_ : int) ~value ~mark =
  match mark with
  | Event.Normal_write -> Wt_common.write_through t.w ~proc ~addr ~value ~meta:0 ~other_meta:0
  | Event.Bypass_write -> Wt_common.write_bypass t.w ~proc ~addr ~value ~meta:0

let epoch_boundary t ~stalls =
  let w = t.w in
  Wt_common.drain_buffers w;
  (* full-cache invalidation at every boundary; O(allocated frames) *)
  let caches = w.Wt_common.caches in
  (* these invalidations are the scheme's conservatism, not resets *)
  let wipe = lnot (((1 lsl w.cfg.line_words) - 1) lor Cache.reset_invalidated_bit) in
  for p = 0 to Array.length caches - 1 do
    let c = caches.(p) in
    for f = 0 to c.frames - 1 do
      if c.state.(f) <> Cache.invalid_state then c.bits.(f) <- c.bits.(f) land wipe
    done
  done;
  Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.w.st

let memory_image t = t.w.Wt_common.mem.Memstate.values

let snapshot t =
  let b = Buffer.create 256 in
  Wt_common.snapshot_into b t.w;
  Buffer.contents b
