(** Set-associative cache with per-word state, stored as flat int arrays
    per cache: word-granular valid bits, values (for end-to-end
    correctness checking), scheme-defined per-word metadata (timetags,
    versions) and line-level protocol state, plus the bookkeeping the
    miss classifiers use.

    A frame is an int. {!find}, {!probe} and {!allocate} return one, and
    the scheme reads and writes the frame's slots in the arrays below
    directly, so no access allocates and no hot path pays a cross-module
    call per field. Per frame [f]: [tag.(f)] (memory line held, -1 when
    never used), [state.(f)] (scheme-defined, {!invalid_state} = free),
    [lru.(f)], and [bits.(f)], which packs the valid bit of word [k]
    ([1 lsl k]), its touch bit ([1 lsl (touched_shift + k)]) and the flags
    {!reset_invalidated_bit} and {!inv_false_sharing_bit}. Per word:
    [value], [meta] and [fetch_seq] at index [f * line_words + off]
    ({!word}).

    The frame arrays grow when a set is first allocated into, so a
    scheme must read them through [t] after every {!allocate}, never from
    a copy taken before it. Frames are numbered in allocation order:
    [0 .. frames - 1] are all the frames whole-cache walks visit. *)

type t = private {
  assoc : int;  (** frames per set (1 = direct-mapped) *)
  line_words : int;
  line_shift : int;
  set_mask : int;
  sets : int;
  mutable first : Bytes.t;  (** set table: int32 first frame per set, -1 = none *)
  mutable frames : int;  (** frames in use, [assoc] per allocated set *)
  mutable tag : int array;
  mutable state : int array;
  mutable lru : int array;
  mutable bits : int array;
  mutable value : int array;
  mutable meta : int array;  (** scheme-defined per-word metadata *)
  mutable fetch_seq : int array;  (** per word: global write-seq at fetch time *)
  mutable tick : int;
  mutable evicted_tag : int;
      (** line of the valid frame the last {!allocate} replaced, -1 when it
          took a matching or free frame *)
  mutable evicted_state : int;  (** that frame's state before the replacement *)
}

val invalid_state : int

(** Layout of [bits.(f)] (see above): touch bits start at [touched_shift]
    = [Config.max_line_words]; the two flags sit above them. *)
val touched_shift : int

val reset_invalidated_bit : int
val inv_false_sharing_bit : int

(** [create_array cfg ~memory_lines n] is [n] empty caches sharing one
    read-only table of unallocated sets, covering [min sets memory_lines]
    sets (no address at or past [memory_lines] lines may be accessed):
    building them costs one int32 per set once plus O(1) per cache. A
    cache's first allocation swaps in a private table and each set's
    frames appear on its first allocation, so a P=1024 machine pays for
    the lines its trace touches. Raises [Invalid_argument] when the line
    is longer than [Config.max_line_words]. *)
val create_array : Hscd_arch.Config.t -> memory_lines:int -> int -> t array

(** [create cfg ~memory_lines] is [(create_array cfg ~memory_lines 1).(0)]. *)
val create : Hscd_arch.Config.t -> memory_lines:int -> t

(** First of the [assoc] frames of set [si], -1 when the set was never
    allocated into (snapshot encoders render those as invalid frames). *)
val first_frame : t -> int -> int

(** Frame holding the address's line in a non-invalid state, or -1;
    no LRU update. *)
val probe : t -> int -> int

(** Like {!probe} but bumps LRU on a hit. *)
val find : t -> int -> int

(** Frame for the address's line: the frame already tagged with it, else
    a free frame, else the LRU victim, whose tag and state are left in
    [evicted_tag]/[evicted_state] for the caller's write-back. The frame
    comes back with [tag] set, state invalid, no valid or touched words,
    both flags clear and LRU bumped; the caller fills it. *)
val allocate : t -> int -> int

(** Index of word [off] of frame [f] in [value], [meta] and [fetch_seq]. *)
val word : t -> int -> int -> int

val word_valid : t -> int -> int -> bool
val touched : t -> int -> int -> bool
val inv_false_sharing : t -> int -> bool

(** Number of frames in a non-invalid state (occupancy stats, tests). *)
val resident_lines : t -> int
