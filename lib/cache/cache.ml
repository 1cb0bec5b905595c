(** Set-associative cache with per-word state, stored flat.

    The HSCD schemes need word-granular metadata (timetags, per-word valid
    bits) while the directory scheme needs line-granular protocol state;
    this structure supports both. A frame is an index into per-cache int
    arrays: [tag], [state] and [lru] hold one int per frame; [value],
    [meta] and [fetch_seq] hold one int per word at
    [frame * line_words + offset]; [bits] packs a frame's valid bits, its
    touch bits (for false-sharing classification) and the two
    classification flags into one int. Nothing is allocated per line or
    per access. *)

let invalid_state = 0

let max_line_words = Hscd_arch.Config.max_line_words
let touched_shift = max_line_words
let reset_invalidated_bit = 1 lsl (2 * max_line_words)
let inv_false_sharing_bit = 1 lsl ((2 * max_line_words) + 1)

(* Frames appear when their set is first allocated into: a set table maps
   each set to its first frame ([assoc] consecutive frames), and the frame
   arrays grow by doubling. A P=1024 machine has 4M cache lines of which a
   typical trace touches a small fraction, so the caches of one machine
   start on a single shared, read-only table of unallocated sets
   ({!create_array}) and a cache swaps in a private table on its first
   allocation. Entries are native-endian int32s, -1 for a set never
   allocated into. A line number is below the machine's memory-line
   count, so the table covers only [min sets memory_lines] sets. *)
type t = {
  assoc : int;
  line_words : int;
  line_shift : int;
  set_mask : int;
  sets : int;
  mutable first : Bytes.t;
  mutable frames : int;
  mutable tag : int array;
  mutable state : int array;
  mutable lru : int array;
  mutable bits : int array;
  mutable value : int array;
  mutable meta : int array;
  mutable fetch_seq : int array;
  mutable tick : int;
  mutable evicted_tag : int;
  mutable evicted_state : int;
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let create_array (c : Hscd_arch.Config.t) ~memory_lines n =
  if c.line_words > max_line_words then
    invalid_arg
      (Printf.sprintf "Cache: line_words %d exceeds the packed per-frame bits (at most %d)"
         c.line_words max_line_words);
  let sets = Hscd_arch.Config.sets c in
  let empty = Bytes.make (4 * min sets (max 1 memory_lines)) '\xff' in
  Array.init n (fun _ ->
      {
        assoc = c.assoc;
        line_words = c.line_words;
        line_shift = Hscd_util.Ints.ilog2 c.line_words;
        set_mask = sets - 1;
        sets;
        first = empty;
        frames = 0;
        tag = [||];
        state = [||];
        lru = [||];
        bits = [||];
        value = [||];
        meta = [||];
        fetch_seq = [||];
        tick = 0;
        evicted_tag = -1;
        evicted_state = invalid_state;
      })

let create c ~memory_lines = (create_array c ~memory_lines 1).(0)

let first_frame t si =
  if 4 * si >= Bytes.length t.first then -1 else Int32.to_int (get32 t.first (4 * si))

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Give set [si] the next [assoc] frames, growing the frame arrays by
   doubling (never past the cache's capacity). New frames hold tag -1,
   state invalid, LRU 0 and no valid words. The first allocation leaves
   the shared table for a private one. *)
let materialize t si =
  if t.frames = 0 then t.first <- Bytes.make (Bytes.length t.first) '\xff';
  let f = t.frames in
  let need = f + t.assoc in
  if need > Array.length t.tag then begin
    let n = min (t.sets * t.assoc) (max need (2 * Array.length t.tag)) in
    let w = n * t.line_words in
    t.tag <- grown t.tag n (-1);
    t.state <- grown t.state n invalid_state;
    t.lru <- grown t.lru n 0;
    t.bits <- grown t.bits n 0;
    t.value <- grown t.value w 0;
    t.meta <- grown t.meta w 0;
    t.fetch_seq <- grown t.fetch_seq w 0
  end;
  set32 t.first (4 * si) (Int32.of_int f);
  t.frames <- need;
  f

(* Top-level so the per-access scan allocates no closure. *)
let rec scan t line f stop =
  if f = stop then -1
  else if t.tag.(f) = line && t.state.(f) <> invalid_state then f
  else scan t line (f + 1) stop

let probe t addr =
  let line = addr lsr t.line_shift in
  let f = first_frame t (line land t.set_mask) in
  if f < 0 then -1 else scan t line f (f + t.assoc)

let find t addr =
  let f = probe t addr in
  if f >= 0 then begin
    t.tick <- t.tick + 1;
    t.lru.(f) <- t.tick
  end;
  f

let allocate t addr =
  let line = addr lsr t.line_shift in
  let si = line land t.set_mask in
  let first = first_frame t si in
  let first = if first < 0 then materialize t si else first in
  (* reuse the matching frame if present (e.g. refetch of an invalidated
     line), else a free frame, else the LRU victim; the lowest frame wins
     each tie *)
  let matching = ref (-1) and free = ref (-1) in
  for f = first + t.assoc - 1 downto first do
    if t.tag.(f) = line then matching := f
    else if t.state.(f) = invalid_state then free := f
  done;
  let f =
    if !matching >= 0 then !matching
    else if !free >= 0 then !free
    else begin
      let victim = ref first in
      for f = first + 1 to first + t.assoc - 1 do
        if t.lru.(f) < t.lru.(!victim) then victim := f
      done;
      !victim
    end
  in
  if !matching < 0 && !free < 0 then begin
    t.evicted_tag <- t.tag.(f);
    t.evicted_state <- t.state.(f)
  end
  else begin
    t.evicted_tag <- -1;
    t.evicted_state <- invalid_state
  end;
  t.tag.(f) <- line;
  t.state.(f) <- invalid_state;
  t.bits.(f) <- 0;
  t.tick <- t.tick + 1;
  t.lru.(f) <- t.tick;
  f

let word t f off = (f * t.line_words) + off

let word_valid t f off = t.bits.(f) land (1 lsl off) <> 0
let touched t f off = t.bits.(f) land (1 lsl (touched_shift + off)) <> 0
let inv_false_sharing t f = t.bits.(f) land inv_false_sharing_bit <> 0

let resident_lines t =
  let n = ref 0 in
  for f = 0 to t.frames - 1 do
    if t.state.(f) <> invalid_state then incr n
  done;
  !n
