(** Shared machinery of the write-through compiler-directed schemes (SC and
    TPI): per-processor caches with write-allocate, write-buffer traffic,
    per-processor fetch history for cold/replacement classification, and
    the conservative-vs-true-sharing miss test. *)

module Cache = Hscd_cache.Cache
module Write_buffer = Hscd_cache.Write_buffer


module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config

type t = {
  cfg : Config.t;
  mem : Memstate.t;
  caches : Cache.t array;
  wbufs : Write_buffer.t array;
  fetched : Fetch_map.t;  (** per proc, per memory line: fetched at least once *)
  net : Kruskal_snir.t;
  traffic : Traffic.t;
  st : Scheme.stats;
  memory_lines : int;
  res : Scheme.access_result;  (** per-instance scratch, reused every access *)
  active_writers : int array;  (** dense: procs with buffered writes this epoch *)
  mutable n_active_writers : int;
  writer_marked : Bytes.t;  (** per proc: already in [active_writers] *)
}

(* We reuse the Cache line state field as a single "resident" flag. *)
let state_resident = 1

let create cfg ~memory_words ~network ~traffic =
  let memory_lines = Hscd_util.Ints.ceil_div (max 1 memory_words) cfg.Config.line_words in
  {
    cfg;
    mem = Memstate.create ~words:memory_words;
    caches = Cache.create_array cfg ~memory_lines cfg.processors;
    wbufs = Array.init cfg.processors (fun _ -> Write_buffer.create cfg);
    fetched = Fetch_map.create ~processors:cfg.processors ~lines:memory_lines;
    net = network;
    traffic;
    st = Scheme.fresh_stats ();
    memory_lines;
    res = Scheme.fresh_result ();
    active_writers = Array.make cfg.processors 0;
    n_active_writers = 0;
    writer_marked = Bytes.make cfg.processors '\000';
  }

(* Remember that [proc]'s write buffer has pending state, so the boundary
   drain visits only processors that actually wrote this epoch. *)
let note_writer t proc =
  if Bytes.get t.writer_marked proc = '\000' then begin
    Bytes.set t.writer_marked proc '\001';
    t.active_writers.(t.n_active_writers) <- proc;
    t.n_active_writers <- t.n_active_writers + 1
  end

(** Cold vs replacement attribution for a miss with no usable resident
    copy. *)
let absent_class t ~proc addr =
  let line = addr / t.cfg.line_words in
  if Fetch_map.was_fetched t.fetched ~proc line then Scheme.Replacement else Scheme.Cold

(** Was the resident (but rejected) copy of [addr] in [proc]'s frame [f]
    actually still fresh? If no other processor wrote the word since this
    copy was fetched, the miss is unnecessary — a conservative-compiler (or
    reset) miss. *)
let stale_copy_class t ~proc ~frame:f addr =
  let c = t.caches.(proc) in
  let off = addr land (t.cfg.line_words - 1) in
  if Memstate.foreign_write_since t.mem ~proc ~since:c.fetch_seq.((f * t.cfg.line_words) + off) addr
  then Scheme.True_sharing
  else if c.bits.(f) land Cache.reset_invalidated_bit <> 0 then Scheme.Reset_inv
  else Scheme.Conservative

(** Fetch the whole line containing [addr] into [proc]'s cache from memory
    (write-through keeps memory current; a valid victim needs no
    write-back). [ref_meta]/[other_meta] become the per-word metadata (TPI
    timetags). Returns the frame. *)
let fetch_line t ~proc ~addr ~ref_meta ~other_meta =
  let c = t.caches.(proc) in
  let f = Cache.allocate c addr in
  let lw = t.cfg.line_words in
  let base = addr land lnot (lw - 1) in
  let off = addr land (lw - 1) in
  c.state.(f) <- state_resident;
  c.bits.(f) <- ((1 lsl lw) - 1) lor (1 lsl (Cache.touched_shift + off));
  for k = 0 to lw - 1 do
    let i = (f * lw) + k in
    c.value.(i) <- Memstate.read t.mem (base + k);
    c.meta.(i) <- (if k = off then ref_meta else other_meta);
    c.fetch_seq.(i) <- t.mem.seq
  done;
  Fetch_map.mark t.fetched ~proc (addr / lw);
  Traffic.add_read t.traffic lw;
  Traffic.add_control t.traffic Scheme.control_words;
  f

let line_fetch_latency t = Scheme.transfer_latency t.cfg t.net ~words:t.cfg.line_words

let word_fetch_latency t = Scheme.transfer_latency t.cfg t.net ~words:1

(** Write-through write-allocate store. [meta] is the timetag for the
    written word, [other_meta] for line-fill companions on an allocating
    miss. Returns the access result (1-cycle buffered store; the class
    records whether the allocate missed). *)
let write_through t ~proc ~addr ~value ~meta ~other_meta =
  Memstate.write t.mem ~proc addr value;
  let c = t.caches.(proc) in
  let off = addr land (t.cfg.line_words - 1) in
  let f = Cache.find c addr in
  let cls =
    (* every frame [find] returns is resident: a store hits it even when
       the word itself was invalidated *)
    if f >= 0 then begin
      let i = (f * t.cfg.line_words) + off in
      c.value.(i) <- value;
      c.bits.(f) <- c.bits.(f) lor (1 lsl off) lor (1 lsl (Cache.touched_shift + off));
      c.meta.(i) <- meta;
      c.fetch_seq.(i) <- t.mem.seq;
      Scheme.Hit
    end
    else begin
      let cls = absent_class t ~proc addr in
      let f = fetch_line t ~proc ~addr ~ref_meta:meta ~other_meta in
      let i = (f * t.cfg.line_words) + off in
      c.value.(i) <- value;
      c.meta.(i) <- meta;
      cls
    end
  in
  (* the word itself goes to memory through the write buffer *)
  note_writer t proc;
  let words = Write_buffer.write t.wbufs.(proc) addr in
  if words > 0 then begin
    Traffic.add_write t.traffic words;
    Traffic.add_control t.traffic Scheme.control_words
  end;
  (* under weak consistency the store retires in one cycle behind the write
     buffer; sequential consistency stalls for the memory round trip (the
     paper's footnote on why a SC model hurts write-through schemes) *)
  let latency =
    match t.cfg.consistency with
    | Config.Weak -> 1
    | Config.Sequential ->
      word_fetch_latency t + (if cls = Scheme.Hit then 0 else line_fetch_latency t)
  in
  Scheme.set_result t.res ~latency ~value ~cls

(** Uncached store (critical sections): memory and any local copy updated. *)
let write_bypass t ~proc ~addr ~value ~meta =
  Memstate.write t.mem ~proc addr value;
  let c = t.caches.(proc) in
  let f = Cache.probe c addr in
  if f >= 0 then begin
    let off = addr land (t.cfg.line_words - 1) in
    let i = (f * t.cfg.line_words) + off in
    c.value.(i) <- value;
    c.bits.(f) <- c.bits.(f) lor (1 lsl off);
    c.meta.(i) <- meta;
    c.fetch_seq.(i) <- t.mem.seq
  end;
  Traffic.add_write t.traffic 1;
  Traffic.add_control t.traffic Scheme.control_words;
  let latency = match t.cfg.consistency with
    | Config.Weak -> 1
    | Config.Sequential -> word_fetch_latency t
  in
  Scheme.set_result t.res ~latency ~value ~cls:Scheme.Uncached

(** Shared {!Scheme.S.snapshot} body of the write-through family: memory
    image plus every processor's cache. Write buffers are traffic-only
    (correctness-visible updates go to [mem] eagerly), so they are not
    part of the abstract state. *)
let snapshot_into b t =
  Scheme.Snap.ints b t.mem.Memstate.values;
  Scheme.Snap.caches b t.caches

(** Drain write buffers at an epoch boundary; traffic only. Visits only
    the processors that wrote since the last drain (traffic sums are
    commutative, so the dense-list order is observably identical to the
    old full scan). *)
let drain_buffers t =
  for i = 0 to t.n_active_writers - 1 do
    let p = t.active_writers.(i) in
    Bytes.set t.writer_marked p '\000';
    let words = Write_buffer.drain t.wbufs.(p) in
    if words > 0 then Traffic.add_write t.traffic words
  done;
  t.n_active_writers <- 0
