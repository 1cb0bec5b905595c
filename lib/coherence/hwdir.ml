(** HW — full-map directory scheme [8, 3].

    A three-state (invalid / read-shared / write-exclusive) invalidation
    protocol with a full presence-bit directory at each line's home node
    and write-back caches, under weak consistency (writes retire through
    write buffers; reads stall).

    Classification uses the Tullsen–Eggers criterion [34]: when a remote
    write invalidates a cached line, the invalidation is *false sharing*
    if the local processor had not used the written word since fetching
    the line; the next miss on that line is then a false-sharing miss
    (else a true-sharing miss). Invalidated frames keep their tag and
    carry the flag until refetched or evicted.

    Host storage follows the trace, not the paper's P·M (Fig 5): a
    directory entry is created by the first fetch of its line (every other
    line shares the empty [absent] sentinel, which nothing writes), the
    per-processor fetch history starts on one shared zero map, and the
    caches share one empty set table until first allocation. Sharer walks
    visit set presence bits only. *)

module Cache = Hscd_cache.Cache


module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

let s_invalid = Cache.invalid_state (* 0 *)
let s_shared = 1
let s_modified = 2
let s_inv_tagged = 3  (** invalid for access, but tagged for classification *)

type dir_entry = { presence : Hscd_util.Bitset.t; mutable dirty : bool }

(* The entry of every line not yet fetched. Its empty, clean state
   snapshots exactly like a created entry with no sharers; only
   [fetch_line] replaces it, and every other path that would write an
   entry raises on it rather than corrupt the sentinel shared by every
   machine. *)
let absent = { presence = Hscd_util.Bitset.create 0; dirty = false }

type t = {
  cfg : Config.t;
  mem : Memstate.t;
  caches : Cache.t array;
  directory : dir_entry array;  (** per memory line; [absent] until first fetch *)
  fetched : Fetch_map.t;
  net : Kruskal_snir.t;
  traffic : Traffic.t;
  st : Scheme.stats;
  res : Scheme.access_result;
}

let name = "HW"

let create cfg ~memory_words ~network ~traffic =
  let memory_lines = Hscd_util.Ints.ceil_div (max 1 memory_words) cfg.Config.line_words in
  {
    cfg;
    mem = Memstate.create ~words:memory_words;
    caches = Cache.create_array cfg cfg.processors;
    directory = Array.make memory_lines absent;
    fetched = Fetch_map.create ~processors:cfg.processors ~lines:memory_lines;
    net = network;
    traffic;
    st = Scheme.fresh_stats ();
    res = Scheme.fresh_result ();
  }

let mem_line t addr = addr / t.cfg.line_words
let off_of t addr = addr land (t.cfg.line_words - 1)

(* The entry of a line some processor has fetched; [absent] here is a
   protocol bug (a cached or shared line the directory never saw). *)
let entry t ~line_no ~what =
  let dir = t.directory.(line_no) in
  if dir == absent then
    Hscd_util.Hscd_error.fail Internal "Hwdir.%s: line %d has no directory entry" what line_no;
  dir

(* Write back a dirty victim: directory learns, memory traffic counted.
   (Values are kept current in [mem] eagerly, so only bookkeeping here.) *)
let evict t ~proc (victim : Cache.line) =
  if victim.tag >= 0 && victim.tag < Array.length t.directory then begin
    let dir = entry t ~line_no:victim.tag ~what:"evict" in
    if victim.state = s_modified then begin
      t.st.writebacks <- t.st.writebacks + 1;
      Traffic.add_write t.traffic t.cfg.line_words;
      dir.dirty <- false
    end;
    if victim.state = s_modified || victim.state = s_shared then begin
      Hscd_util.Bitset.remove dir.presence proc;
      Traffic.add_control t.traffic 1 (* replacement hint *)
    end
  end

(* Invalidate every remote sharer of [line_no] because [writer] writes word
   [off]; sets Tullsen-Eggers flags on the victims. Returns sharer count. *)
let invalidate_sharers t ~writer ~line_no ~off =
  let dir = entry t ~line_no ~what:"invalidate_sharers" in
  let count = ref 0 in
  Hscd_util.Bitset.iter
    (fun p ->
      if p <> writer then begin
        incr count;
        match Cache.probe t.caches.(p) (line_no * t.cfg.line_words) with
        | Some line when line.state = s_shared || line.state = s_modified ->
          line.inv_false_sharing <- not line.touched.(off);
          line.inv_pending <- true;
          line.state <- s_inv_tagged
        | Some _ | None -> ()
      end)
    dir.presence;
  if !count > 0 then begin
    t.st.invalidations_sent <- t.st.invalidations_sent + !count;
    (* invalidation requests + acknowledgements *)
    Traffic.add_coherence t.traffic (2 * !count)
  end;
  Hscd_util.Bitset.clear dir.presence;
  Hscd_util.Bitset.add dir.presence writer;
  !count

(* Fetch a line into [proc]'s cache with the given final state. Handles
   dirty remote copies (recall + extra hops). Creates the line's directory
   entry on its first fetch. Returns the line and leaves the transaction's
   latency in the [res] scratch, so a miss allocates no result tuple. *)
let fetch_line t ~proc ~addr ~state =
  let line_no = mem_line t addr in
  let dir = t.directory.(line_no) in
  let dir =
    if dir == absent then begin
      let e = { presence = Hscd_util.Bitset.create t.cfg.processors; dirty = false } in
      t.directory.(line_no) <- e;
      e
    end
    else dir
  in
  let base_latency = Scheme.transfer_latency t.cfg t.net ~words:t.cfg.line_words in
  let latency =
    if dir.dirty && not (Hscd_util.Bitset.mem dir.presence proc) then begin
      (* 3-hop transaction: home forwards to the owner, owner supplies the
         line and writes it back *)
      t.st.dirty_recalls <- t.st.dirty_recalls + 1;
      (* the owner downgrades (read) or invalidates (write) *)
      Hscd_util.Bitset.iter
        (fun owner ->
          if owner <> proc then
            match Cache.probe t.caches.(owner) (line_no * t.cfg.line_words) with
            | Some oline when oline.state = s_modified ->
              oline.state <- (if state = s_modified then s_inv_tagged else s_shared);
              if state = s_modified then begin
                oline.inv_false_sharing <- not oline.touched.(off_of t addr);
                oline.inv_pending <- true
              end
            | Some _ | None -> ())
        dir.presence;
      dir.dirty <- false;
      Traffic.add_write t.traffic t.cfg.line_words (* owner's writeback *);
      Traffic.add_coherence t.traffic 2 (* forward + ack *);
      base_latency + (t.cfg.miss_base_cycles / 2) + Kruskal_snir.round_trip_excess t.net
    end
    else base_latency
  in
  if state = s_modified then begin
    ignore (invalidate_sharers t ~writer:proc ~line_no ~off:(off_of t addr));
    dir.dirty <- true
  end
  else Hscd_util.Bitset.add dir.presence proc;
  let cache = t.caches.(proc) in
  let line = Cache.allocate cache ~on_evict:(evict t ~proc) addr in
  let base = line_no * t.cfg.line_words in
  line.state <- state;
  for k = 0 to t.cfg.line_words - 1 do
    line.values.(k) <- Memstate.read t.mem (base + k);
    line.word_valid.(k) <- true;
    line.fetch_seq.(k) <- t.mem.seq;
    line.touched.(k) <- false
  done;
  line.touched.(off_of t addr) <- true;
  Fetch_map.mark t.fetched ~proc line_no;
  Traffic.add_read t.traffic t.cfg.line_words;
  Traffic.add_control t.traffic Scheme.control_words;
  t.res.latency <- latency;
  line

(* Miss classification before refetch. *)
let miss_class t ~proc ~addr =
  match Cache.probe t.caches.(proc) addr with
  | Some line when line.state = s_inv_tagged ->
    if line.inv_false_sharing then Scheme.False_sharing else Scheme.True_sharing
  | Some _ | None ->
    if Fetch_map.was_fetched t.fetched ~proc (mem_line t addr) then Scheme.Replacement
    else Scheme.Cold

let read t ~proc ~addr ~array:(_ : int) ~mark:_ =
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_shared || line.state = s_modified ->
    line.touched.(off_of t addr) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value:line.values.(off_of t addr)
      ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let line = fetch_line t ~proc ~addr ~state:s_shared in
    Scheme.set_result t.res ~latency:t.res.latency ~value:line.values.(off_of t addr) ~cls

(* weak consistency retires stores in one cycle behind the write buffer;
   sequential consistency stalls for the coherence transaction *)
let retire t transaction_latency =
  match t.cfg.consistency with Config.Weak -> 1 | Config.Sequential -> transaction_latency

let write t ~proc ~addr ~array:(_ : int) ~value ~mark:_ =
  Memstate.write t.mem ~proc addr value;
  let off = off_of t addr in
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_modified ->
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value ~cls:Scheme.Hit
  | Some line when line.state = s_shared ->
    (* upgrade: invalidate other sharers *)
    t.st.upgrades <- t.st.upgrades + 1;
    ignore (invalidate_sharers t ~writer:proc ~line_no:(mem_line t addr) ~off);
    (entry t ~line_no:(mem_line t addr) ~what:"upgrade").dirty <- true;
    line.state <- s_modified;
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res
      ~latency:(retire t (Scheme.transfer_latency t.cfg t.net ~words:1))
      ~value ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let line = fetch_line t ~proc ~addr ~state:s_modified in
    line.values.(off) <- value;
    Scheme.set_result t.res ~latency:(retire t t.res.latency) ~value ~cls

let epoch_boundary (_ : t) ~stalls = Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.st

let memory_image t = t.mem.Memstate.values

(* memory + caches + the full-map directory (presence vectors and dirty
   bits drive future invalidations and recalls); an [absent] entry encodes
   as the empty, clean entry it stands for *)
let snapshot t =
  let b = Buffer.create 256 in
  Scheme.Snap.ints b t.mem.Memstate.values;
  Array.iter
    (fun e ->
      Hscd_util.Bitset.iter (Scheme.Snap.int b) e.presence;
      Scheme.Snap.bool b e.dirty;
      Scheme.Snap.sep b)
    t.directory;
  Scheme.Snap.caches b t.caches;
  Buffer.contents b
