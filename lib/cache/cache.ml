(** Set-associative cache with per-word state.

    The HSCD schemes need word-granular metadata (timetags, per-word valid
    bits) while the directory scheme needs line-granular protocol state;
    this structure supports both: each line carries a scheme-defined
    [state] integer plus per-word valid bits, values (so the simulator can
    check every load against the golden memory image), word metadata
    (timetags) and per-word touch bits (for false-sharing classification). *)

type line = {
  mutable tag : int;  (** memory line number held, -1 when free *)
  mutable state : int;  (** scheme-defined; 0 = invalid *)
  mutable lru : int;
  mutable fetch_seq : int array;  (** per word: global write-seq at fetch time *)
  word_valid : bool array;
  values : int array;
  meta : int array;  (** scheme-defined per-word metadata (e.g. timetag epoch) *)
  touched : bool array;  (** word used by the local processor since fetch *)
  mutable reset_invalidated : bool;  (** invalidated by a two-phase reset *)
  mutable inv_false_sharing : bool;  (** last invalidation was a false-sharing one *)
  mutable inv_pending : bool;  (** line was invalidated by a remote write *)
}

(* Sets materialize on first allocation into them: [ [||] ] marks an
   untouched set. A P=1024 machine has 4M cache lines of which a typical
   trace touches a small fraction; building them all eagerly used to
   dominate whole-simulation time and minor-heap churn. Even the index
   table of empty sets is 4,097 words per cache, so the caches of one
   machine start on a single shared all-[ [||] ] table ({!create_array})
   and a cache swaps in a private table on its first materialization:
   nothing ever writes the shared table. [used] lists the materialized set
   indices densely so whole-cache walks are O(resident), not O(capacity). *)
type t = {
  mutable sets : line array array;  (** shared empty table until [n_used > 0] *)
  assoc : int;
  line_words : int;
  line_shift : int;
  set_mask : int;
  mutable used : int array;  (** dense list of materialized set indices *)
  mutable n_used : int;
  mutable tick : int;
  mutable evictions : int;
}

let invalid_state = 0

let make_line line_words =
  {
    tag = -1;
    state = invalid_state;
    lru = 0;
    fetch_seq = Array.make line_words 0;
    word_valid = Array.make line_words false;
    values = Array.make line_words 0;
    meta = Array.make line_words 0;
    touched = Array.make line_words false;
    reset_invalidated = false;
    inv_false_sharing = false;
    inv_pending = false;
  }

let create_array (c : Hscd_arch.Config.t) n =
  let sets = Hscd_arch.Config.sets c in
  let empty = Array.make sets [||] in
  Array.init n (fun _ ->
      {
        sets = empty;
        assoc = c.assoc;
        line_words = c.line_words;
        line_shift = Hscd_util.Ints.ilog2 c.line_words;
        set_mask = sets - 1;
        used = [||];
        n_used = 0;
        tick = 0;
        evictions = 0;
      })

let create c = (create_array c 1).(0)

let assoc t = t.assoc

(* Build the frames of set [si] on its first allocation and record it in
   the dense used list (amortized-doubling, so tiny caches stay tiny). The
   first materialization leaves the shared table for a private one; the
   shared table is all empty, so a fresh [Array.make] equals a copy and
   skips [Array.copy]'s per-element write barrier on a major-heap array. *)
let materialize t si =
  if t.n_used = 0 then t.sets <- Array.make (Array.length t.sets) [||];
  let set = Array.init t.assoc (fun _ -> make_line t.line_words) in
  t.sets.(si) <- set;
  if t.n_used = Array.length t.used then begin
    let grown = Array.make (max 8 (2 * t.n_used)) 0 in
    Array.blit t.used 0 grown 0 t.n_used;
    t.used <- grown
  end;
  t.used.(t.n_used) <- si;
  t.n_used <- t.n_used + 1;
  set

let line_of_addr t addr = addr lsr t.line_shift
let offset_of_addr t addr = addr land (t.line_words - 1)
let set_of_line t line = line land t.set_mask

let touch_lru t line =
  t.tick <- t.tick + 1;
  line.lru <- t.tick

(* Top-level so the per-access scan allocates no closure: this runs on
   every cached reference of the replay hot path, and a local [let rec]
   capturing [set]/[mem_line] would cost a closure per call. *)
let rec scan_set set mem_line i =
  if i >= Array.length set then None
  else if set.(i).tag = mem_line && set.(i).state <> invalid_state then Some set.(i)
  else scan_set set mem_line (i + 1)

(** Find the cache line currently holding [addr], if any (does not bump
    LRU; callers decide). *)
let probe t addr =
  let mem_line = line_of_addr t addr in
  scan_set t.sets.(set_of_line t mem_line) mem_line 0

let find t addr =
  let mem_line = line_of_addr t addr in
  let res = scan_set t.sets.(set_of_line t mem_line) mem_line 0 in
  (match res with Some l -> touch_lru t l | None -> ());
  res

let clear_line l =
  l.tag <- -1;
  l.state <- invalid_state;
  Array.fill l.word_valid 0 (Array.length l.word_valid) false;
  Array.fill l.touched 0 (Array.length l.touched) false;
  l.reset_invalidated <- false;
  l.inv_false_sharing <- false;
  l.inv_pending <- false

(** Allocate a frame for [addr]'s line, calling [on_evict] on a valid
    victim first (for write-back). The returned line has [tag] set, state
    still invalid and all words invalid; the caller fills it. *)
let allocate t ~on_evict addr =
  let mem_line = line_of_addr t addr in
  let si = set_of_line t mem_line in
  let set = t.sets.(si) in
  let set = if Array.length set = 0 then materialize t si else set in
  (* reuse the matching frame if present (e.g. refetch of an invalidated
     line), else a free frame, else the LRU victim — one allocation-free
     index scan, a matching frame preferred over a free one *)
  let frame =
    let n = Array.length set in
    let matching = ref (-1) and free = ref (-1) in
    for i = n - 1 downto 0 do
      if set.(i).tag = mem_line then matching := i
      else if set.(i).state = invalid_state then free := i
    done;
    if !matching >= 0 then set.(!matching)
    else if !free >= 0 then set.(!free)
    else begin
      let victim = ref set.(0) in
      for i = 1 to n - 1 do
        if set.(i).lru < (!victim).lru then victim := set.(i)
      done;
      t.evictions <- t.evictions + 1;
      on_evict !victim;
      !victim
    end
  in
  clear_line frame;
  frame.tag <- mem_line;
  touch_lru t frame;
  frame

(** Iterate over every resident line: O(materialized sets), in
    materialization order (no caller depends on set order). *)
let iter_lines t f =
  for i = 0 to t.n_used - 1 do
    let set = t.sets.(t.used.(i)) in
    for j = 0 to Array.length set - 1 do
      let l = set.(j) in
      if l.state <> invalid_state then f l
    done
  done

(** Number of currently valid lines (for occupancy stats/tests). *)
let resident_lines t =
  let n = ref 0 in
  iter_lines t (fun _ -> incr n);
  !n

(** Frames in set/frame order, including invalid ones — snapshot encoders
    walk the full geometry so equal states serialize identically. A set
    never allocated into is the empty array; encoders treat it as [assoc]
    invalid frames so materialization state never leaks into snapshots. *)
let frame_sets t = t.sets
