(** Common interface of the four coherence schemes compared by the paper
    (BASE, SC, TPI, HW) plus shared cost helpers. *)

module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

(** Outcome classification of one memory access, following the paper's
    miss taxonomy: cold and replacement misses are capacity effects; true
    sharing misses are necessary for coherence; false sharing (hardware
    protocols) and conservative (compiler schemes) misses are the
    *unnecessary* misses the evaluation compares; reset misses come from
    timetag recycling; uncached accesses are BASE's remote references and
    bypasses. *)
type miss_class =
  | Hit
  | Cold
  | Replacement
  | True_sharing
  | False_sharing
  | Conservative
  | Reset_inv
  | Uncached

let class_name = function
  | Hit -> "hit"
  | Cold -> "cold"
  | Replacement -> "repl"
  | True_sharing -> "true-share"
  | False_sharing -> "false-share"
  | Conservative -> "conservative"
  | Reset_inv -> "reset"
  | Uncached -> "uncached"

(** Result of one access. The fields are mutable so a scheme can fill a
    single scratch record per instance instead of allocating one per
    access (the replay hot path is allocation-free in steady state): the
    record a scheme returns is owned by that scheme and only valid until
    its next [read]/[write] call — callers must copy out any field they
    keep. *)
type access_result = {
  mutable latency : int;  (** cycles the issuing processor stalls *)
  mutable value : int;  (** value delivered to the processor (reads) *)
  mutable cls : miss_class;
}

(** Fresh scratch record for a scheme instance. *)
let fresh_result () = { latency = 0; value = 0; cls = Hit }

(** Fill-and-return helper for scheme scratch records. *)
let set_result r ~latency ~value ~cls =
  r.latency <- latency;
  r.value <- value;
  r.cls <- cls;
  r

(** Aggregate counters every scheme exposes. *)
type stats = {
  mutable invalidations_sent : int;
  mutable dirty_recalls : int;
  mutable two_phase_resets : int;
  mutable upgrades : int;
  mutable writebacks : int;
}

let fresh_stats () =
  { invalidations_sent = 0; dirty_recalls = 0; two_phase_resets = 0; upgrades = 0; writebacks = 0 }

(** Buffer-based encoders for {!S.snapshot}: every scheme writes its
    abstract state through these, so equal states produce equal strings
    and the bounded model checker can hash-dedup on them. The encodings
    are length-prefixed/delimited, never ambiguous across field
    boundaries. *)
module Snap = struct
  module Cache = Hscd_cache.Cache

  let int b n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '

  let bool b v = Buffer.add_char b (if v then '1' else '0')

  (** Section delimiter, so concatenated variable-length parts of two
      different states can never collide. *)
  let sep b = Buffer.add_char b '|'

  let ints b a =
    int b (Array.length a);
    Array.iter (int b) a;
    sep b

  let bools b a =
    int b (Array.length a);
    Array.iter (bool b) a;
    sep b

  (** Value-relevant cache state: per frame (in set/frame order) the tag,
      protocol state, LRU rank within its set, and per-word validity,
      values and scheme metadata. Classification-only fields (touch bits,
      fetch history, invalidation provenance flags) and the absolute LRU
      tick are deliberately excluded — they never change which values a
      future access can observe, and the raw tick would make every
      snapshot unique. *)
  let cache b (c : Cache.t) =
    let assoc = Cache.assoc c in
    Array.iter
      (fun set ->
        if Array.length set = 0 then
          (* unmaterialized set: encode as [assoc] invalid frames, so the
             encoding never depends on whether a set was ever allocated *)
          for _ = 1 to assoc do
            Buffer.add_char b '.'
          done
        else begin
          (* ranks, not raw ticks: eviction order is what matters *)
          let order = Array.map (fun (l : Cache.line) -> l.Cache.lru) set in
          let rank l =
            let r = ref 0 in
            Array.iter (fun o -> if o < l then incr r) order;
            !r
          in
          Array.iter
            (fun (l : Cache.line) ->
              if l.Cache.state = Cache.invalid_state then Buffer.add_char b '.'
              else begin
                int b l.Cache.tag;
                int b l.Cache.state;
                int b (rank l.Cache.lru);
                bools b l.Cache.word_valid;
                ints b l.Cache.values;
                ints b l.Cache.meta
              end)
            set
        end;
        sep b)
      (Cache.frame_sets c)

  let caches b a = Array.iter (cache b) a
end

module type S = sig
  type t

  val name : string

  val create :
    Config.t -> memory_words:int -> network:Kruskal_snir.t -> traffic:Traffic.t -> t

  (** [array] is the interned dense id of the referenced array (the
      {!Hscd_util.Symtab} of the packed trace, ids in [Shape.layout] base
      order) — schemes that reason per variable (VC) index plain arrays
      with it; no strings reach the replay loop. *)
  val read : t -> proc:int -> addr:int -> array:int -> mark:Event.rmark -> access_result

  val write :
    t -> proc:int -> addr:int -> array:int -> value:int -> mark:Event.wmark -> access_result

  (** Called at every epoch boundary. Fills the caller-owned [stalls]
      scratch (one entry per processor, reused across epochs — never
      retained) with per-processor stall cycles (two-phase resets, buffer
      drains); every entry is overwritten. Replacing the old
      fresh-[int array]-per-epoch contract keeps the boundary path
      allocation-free. *)
  val epoch_boundary : t -> stalls:int array -> unit

  val stats : t -> stats

  (** Final memory image, for end-of-run comparison against the golden
      interpreter. *)
  val memory_image : t -> int array

  (** Canonical encoding of the scheme's abstract coherence state —
      everything that determines which values future accesses can
      observe: the memory image, per-processor cached words (validity,
      value, timetag/version metadata), epoch and version counters, and
      directory entries. Timing state (clocks, network load, write-buffer
      occupancy) and statistics counters are excluded. Replaying the same
      access sequence on a fresh instance must reproduce the same
      snapshot (asserted by the test suite); the bounded model checker
      ({!Hscd_check.Mc}) hashes and dedups explored states on it. *)
  val snapshot : t -> string
end

type packed = Packed : (module S with type t = 't) * 't -> packed

(** Latency of a remote transaction transferring [words] words at the
    current network load. *)
let transfer_latency (c : Config.t) (net : Kruskal_snir.t) ~words =
  c.miss_base_cycles
  + (Int.max 0 (words - 1) * c.word_transfer_cycles)
  + Kruskal_snir.round_trip_excess net

(** Header/request words accompanying a transaction. *)
let control_words = 1
