(** SC — software cache-bypass scheme.

    The hardware keeps no timetags, so the compiler's [Time_read] marks
    cannot be checked at run time: every potentially-stale reference
    (Time-Read or Bypass) is forced to fetch from main memory. The fetch
    refreshes the cache line, so provably-safe [Normal_read]s co-resident
    in the line still enjoy reuse within the task, but all intertask
    locality is lost — the limitation the paper tabulates for SC. *)

module Cache = Hscd_cache.Cache


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = { w : Wt_common.t }

let name = "SC"

let create cfg ~memory_words ~network ~traffic =
  { w = Wt_common.create cfg ~memory_words ~network ~traffic }

let read t ~proc ~addr ~array:(_ : int) ~mark =
  let w = t.w in
  let off = addr land (w.cfg.line_words - 1) in
  match mark with
  | Event.Normal_read | Event.Unmarked -> (
    match Cache.find w.caches.(proc) addr with
    | Some line when line.word_valid.(off) ->
      line.touched.(off) <- true;
      Scheme.set_result w.res ~latency:w.cfg.hit_cycles ~value:line.values.(off) ~cls:Scheme.Hit
    | _ ->
      let cls = Wt_common.absent_class w ~proc addr in
      let line = Wt_common.fetch_line w ~proc ~addr ~ref_meta:0 ~other_meta:0 in
      Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
        ~value:line.values.(off) ~cls)
  | Event.Time_read _ | Event.Bypass_read ->
    (* statically stale: always refetch the line from memory *)
    let cls =
      match Cache.probe w.caches.(proc) addr with
      | Some line when line.word_valid.(off) -> Wt_common.stale_copy_class w ~proc ~line addr
      | Some _ | None -> Wt_common.absent_class w ~proc addr
    in
    let line = Wt_common.fetch_line w ~proc ~addr ~ref_meta:0 ~other_meta:0 in
    Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w) ~value:line.values.(off)
      ~cls

let write t ~proc ~addr ~array:(_ : int) ~value ~mark =
  match mark with
  | Event.Normal_write -> Wt_common.write_through t.w ~proc ~addr ~value ~meta:0 ~other_meta:0
  | Event.Bypass_write -> Wt_common.write_bypass t.w ~proc ~addr ~value ~meta:0

let epoch_boundary t ~stalls =
  Wt_common.drain_buffers t.w;
  Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.w.st

let memory_image t = t.w.Wt_common.mem.Memstate.values

let snapshot t =
  let b = Buffer.create 256 in
  Wt_common.snapshot_into b t.w;
  Buffer.contents b
