(** Set-associative cache with per-word state: word-granular valid bits,
    values (for end-to-end correctness checking), scheme-defined per-word
    metadata (timetags, versions) and line-level protocol state, plus the
    bookkeeping fields the miss classifiers use. *)

type line = {
  mutable tag : int;  (** memory line number held, -1 when free *)
  mutable state : int;  (** scheme-defined; 0 = invalid *)
  mutable lru : int;
  mutable fetch_seq : int array;  (** per word: global write-seq at fetch time *)
  word_valid : bool array;
  values : int array;
  meta : int array;  (** scheme-defined per-word metadata *)
  touched : bool array;  (** word used by the local processor since fetch *)
  mutable reset_invalidated : bool;  (** invalidated by a two-phase reset *)
  mutable inv_false_sharing : bool;  (** last invalidation was false sharing *)
  mutable inv_pending : bool;  (** line was invalidated by a remote write *)
}

type t

val invalid_state : int

(** [create_array cfg n] is [n] empty caches sharing one read-only table
    of empty sets: building them costs O(sets) pointer words once plus
    O(1) per cache. Sets materialize lazily on first allocation, and a
    cache's first allocation swaps in a private O(sets) table, so a
    P=1024 machine pays for the caches its trace touches. *)
val create_array : Hscd_arch.Config.t -> int -> t array

(** [create cfg] is [(create_array cfg 1).(0)]. *)
val create : Hscd_arch.Config.t -> t

(** Frames per set (1 = direct-mapped); snapshot encoders need it to
    render unmaterialized sets. *)
val assoc : t -> int

val line_of_addr : t -> int -> int
val offset_of_addr : t -> int -> int
val set_of_line : t -> int -> int

(** Resident line holding the address, without an LRU update. *)
val probe : t -> int -> line option

(** Like {!probe} but bumps LRU on a hit. *)
val find : t -> int -> line option

(** Allocate a frame for the address's line, calling [on_evict] on a valid
    victim first. The returned line has [tag] set, everything else
    cleared; the caller fills it. *)
val allocate : t -> on_evict:(line -> unit) -> int -> line

(** Iterate over every resident line: O(materialized sets), in
    materialization order. All callers are order-insensitive (flash
    invalidations, occupancy counts). *)
val iter_lines : t -> (line -> unit) -> unit

val resident_lines : t -> int

(** Frames in set/frame order, including invalid ones (for abstract-state
    snapshot encoders that must walk the full cache geometry). A set
    never allocated into is the empty array, standing for [assoc]
    invalid frames. The table may be shared with other caches until this
    one's first allocation: read it, never write it. *)
val frame_sets : t -> line array array
