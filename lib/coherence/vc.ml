(** VC — version-control coherence, after Cheong & Veidenbaum [14].

    Every shared variable (array) has a *current version number* (CVN),
    maintained in registers and incremented at the end of every epoch that
    wrote the variable. Every cache word records the version it belongs
    to: a write creates the next version (CVN+1); a line fill tags the
    referenced word with the CVN and, as in TPI, its companions with CVN−1
    (so same-epoch cross-task reuse of companions is rejected). A
    compiler-flagged reference ([Time_read]/[Bypass] marks — the distance
    is ignored, VC has no distance notion) may hit only if the cached
    word's version is current, i.e. [>= CVN].

    VC therefore invalidates at *variable* granularity where TPI reasons
    per section and epoch distance: writing any part of an array makes
    every older cached word of that array unusable for flagged reads.
    Comparing the two quantifies the value of TPI's epoch distances — a
    reproduction of the Lilja [26] comparison cited by the paper. *)

module Cache = Hscd_cache.Cache
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = {
  w : Wt_common.t;
  mutable versions : int array;  (** CVN per interned array id (dense) *)
  mutable written_this_epoch : Bytes.t;  (** dirty flag per interned array id *)
}

let name = "VC"

let create cfg ~memory_words ~network ~traffic =
  {
    w = Wt_common.create cfg ~memory_words ~network ~traffic;
    versions = Array.make 16 0;
    written_this_epoch = Bytes.make 16 '\000';
  }

(* Dense-id tables grow (rarely — only when a trace introduces a new
   array id) by doubling; steady-state accesses are plain array reads. *)
let ensure t id =
  let n = Array.length t.versions in
  if id >= n then begin
    let n' = max (id + 1) (2 * n) in
    let versions = Array.make n' 0 in
    Array.blit t.versions 0 versions 0 n;
    t.versions <- versions;
    let dirty = Bytes.make n' '\000' in
    Bytes.blit t.written_this_epoch 0 dirty 0 (Bytes.length t.written_this_epoch);
    t.written_this_epoch <- dirty
  end

let cvn t array = if array < Array.length t.versions then t.versions.(array) else 0

let read t ~proc ~addr ~array ~mark =
  let w = t.w in
  let c = w.caches.(proc) in
  let off = addr land (w.cfg.line_words - 1) in
  let f = Cache.find c addr in
  let valid = f >= 0 && c.bits.(f) land (1 lsl off) <> 0 in
  let version_ok =
    valid
    &&
    match mark with
    | Event.Normal_read | Event.Unmarked -> true
    | Event.Time_read _ -> c.meta.((f * w.cfg.line_words) + off) >= cvn t array
    | Event.Bypass_read -> false
  in
  if version_ok then begin
    c.bits.(f) <- c.bits.(f) lor (1 lsl (Cache.touched_shift + off));
    Scheme.set_result w.res ~latency:w.cfg.hit_cycles
      ~value:c.value.((f * w.cfg.line_words) + off) ~cls:Scheme.Hit
  end
  else begin
    let cls =
      if valid then Wt_common.stale_copy_class w ~proc ~frame:f addr
      else Wt_common.absent_class w ~proc addr
    in
    let v = cvn t array in
    let f = Wt_common.fetch_line w ~proc ~addr ~ref_meta:v ~other_meta:(v - 1) in
    Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
      ~value:c.value.((f * w.cfg.line_words) + off) ~cls
  end

let write t ~proc ~addr ~array ~value ~mark =
  ensure t array;
  Bytes.set t.written_this_epoch array '\001';
  let next = cvn t array + 1 in
  match mark with
  | Event.Normal_write ->
    Wt_common.write_through t.w ~proc ~addr ~value ~meta:next ~other_meta:(cvn t array - 1)
  | Event.Bypass_write -> Wt_common.write_bypass t.w ~proc ~addr ~value ~meta:next

let epoch_boundary t ~stalls =
  Wt_common.drain_buffers t.w;
  (* bump the CVN of every variable written during the epoch *)
  for id = 0 to Bytes.length t.written_this_epoch - 1 do
    if Bytes.get t.written_this_epoch id = '\001' then begin
      t.versions.(id) <- t.versions.(id) + 1;
      Bytes.set t.written_this_epoch id '\000'
    end
  done;
  Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.w.st

let memory_image t = t.w.Wt_common.mem.Memstate.values

(* per-variable CVNs and intra-epoch dirty flags are state; the tables
   only grow on demand, so trailing never-written ids (version 0, clean)
   are trimmed to keep the encoding independent of table capacity *)
let snapshot t =
  let b = Buffer.create 256 in
  let live = ref 0 in
  Array.iteri
    (fun id v ->
      if v <> 0 || Bytes.get t.written_this_epoch id = '\001' then live := id + 1)
    t.versions;
  Scheme.Snap.ints b (Array.sub t.versions 0 !live);
  for id = 0 to !live - 1 do
    Scheme.Snap.bool b (Bytes.get t.written_this_epoch id = '\001')
  done;
  Scheme.Snap.sep b;
  Wt_common.snapshot_into b t.w;
  Buffer.contents b
