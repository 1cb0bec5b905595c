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
    carry the flag until refetched or evicted. *)

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

type t = {
  cfg : Config.t;
  mem : Memstate.t;
  caches : Cache.t array;
  directory : dir_entry array;  (** per memory line *)
  ever_fetched : Bytes.t array;
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
    caches = Array.init cfg.processors (fun _ -> Cache.create cfg);
    directory =
      Array.init memory_lines (fun _ ->
          { presence = Hscd_util.Bitset.create cfg.processors; dirty = false });
    ever_fetched = Array.init cfg.processors (fun _ -> Bytes.make memory_lines '\000');
    net = network;
    traffic;
    st = Scheme.fresh_stats ();
    res = Scheme.fresh_result ();
  }

let mem_line t addr = addr / t.cfg.line_words
let off_of t addr = addr land (t.cfg.line_words - 1)

let mark_fetched t ~proc line = Bytes.set t.ever_fetched.(proc) line '\001'
let was_fetched t ~proc line = Bytes.get t.ever_fetched.(proc) line = '\001'

(* Write back a dirty victim: directory learns, memory traffic counted.
   (Values are kept current in [mem] eagerly, so only bookkeeping here.) *)
let evict t ~proc (victim : Cache.line) =
  if victim.tag >= 0 && victim.tag < Array.length t.directory then begin
    let dir = t.directory.(victim.tag) in
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
  let dir = t.directory.(line_no) in
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
   dirty remote copies (recall + extra hops). Returns (line, latency). *)
let fetch_line t ~proc ~addr ~state =
  let line_no = mem_line t addr in
  let dir = t.directory.(line_no) in
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
  mark_fetched t ~proc line_no;
  Traffic.add_read t.traffic t.cfg.line_words;
  Traffic.add_control t.traffic Scheme.control_words;
  (line, latency)

(* Miss classification before refetch. *)
let miss_class t ~proc ~addr =
  match Cache.probe t.caches.(proc) addr with
  | Some line when line.state = s_inv_tagged ->
    if line.inv_false_sharing then Scheme.False_sharing else Scheme.True_sharing
  | Some _ | None ->
    if was_fetched t ~proc (mem_line t addr) then Scheme.Replacement else Scheme.Cold

let read t ~proc ~addr ~array:(_ : int) ~mark:_ =
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_shared || line.state = s_modified ->
    line.touched.(off_of t addr) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value:line.values.(off_of t addr)
      ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let line, latency = fetch_line t ~proc ~addr ~state:s_shared in
    Scheme.set_result t.res ~latency ~value:line.values.(off_of t addr) ~cls

let write t ~proc ~addr ~array:(_ : int) ~value ~mark:_ =
  Memstate.write t.mem ~proc addr value;
  let off = off_of t addr in
  (* weak consistency retires stores in one cycle behind the write buffer;
     sequential consistency stalls for the coherence transaction *)
  let retire transaction_latency =
    match t.cfg.consistency with Config.Weak -> 1 | Config.Sequential -> transaction_latency
  in
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_modified ->
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value ~cls:Scheme.Hit
  | Some line when line.state = s_shared ->
    (* upgrade: invalidate other sharers *)
    t.st.upgrades <- t.st.upgrades + 1;
    ignore (invalidate_sharers t ~writer:proc ~line_no:(mem_line t addr) ~off);
    t.directory.(mem_line t addr).dirty <- true;
    line.state <- s_modified;
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res
      ~latency:(retire (Scheme.transfer_latency t.cfg t.net ~words:1))
      ~value ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let line, fetch_latency = fetch_line t ~proc ~addr ~state:s_modified in
    line.values.(off) <- value;
    Scheme.set_result t.res ~latency:(retire fetch_latency) ~value ~cls

let epoch_boundary (_ : t) ~stalls = Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.st

let memory_image t = t.mem.Memstate.values

(* memory + caches + the full-map directory (presence vectors and dirty
   bits drive future invalidations and recalls) *)
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
