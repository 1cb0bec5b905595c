(** Machine configuration; defaults reproduce the paper's Figure 8
    (16-processor Cray-T3D-like machine, 64 KB direct-mapped caches,
    4-word lines, 100-cycle base miss, 8-bit timetags, 128-cycle two-phase
    reset, analytic multistage network, weak consistency). *)

type scheduling =
  | Block  (** iteration space split into contiguous per-processor chunks *)
  | Cyclic  (** iteration [r] on processor [r mod p] *)
  | Dynamic  (** self-scheduling: next free processor takes the next task *)

val scheduling_name : scheduling -> string

type write_buffer =
  | Plain_buffer
  | Write_cache of int  (** entries; coalesces redundant writes *)

type consistency =
  | Weak  (** writes retire through buffers; only reads stall (default) *)
  | Sequential  (** every write stalls for its full memory/coherence latency *)

val consistency_name : consistency -> string

type t = {
  processors : int;
  cache_bytes : int;
  line_words : int;
  word_bytes : int;
  assoc : int;  (** 1 = direct-mapped *)
  timetag_bits : int;
  hit_cycles : int;
  miss_base_cycles : int;  (** unloaded base latency of a remote line fetch *)
  word_transfer_cycles : int;  (** per additional word of a line transfer *)
  two_phase_reset_cycles : int;
  barrier_cycles : int;  (** epoch-boundary synchronization cost *)
  lock_cycles : int;  (** acquiring an uncontended lock *)
  switch_degree : int;  (** k of the k×k switches of the multistage network *)
  scheduling : scheduling;
  write_buffer : write_buffer;
  consistency : consistency;
  migration_rate : float;
      (** probability that a dynamically-scheduled task migrates to another
          processor mid-execution (Section 5; requires [Dynamic]) *)
  tpi_eager_reset : bool;
      (** model TPI's two-phase reset as the paper's eager flash-invalidate
          scan instead of the default lazy (Tardis-style) timetag-cutoff
          check — observably identical, kept as a differential oracle *)
}

val default : t

(** Longest cache line, in words: a cache frame packs a valid and a touch
    bit per word, plus two flags, into one int. *)
val max_line_words : int

(** Check invariants (power-of-two geometry of at most {!max_line_words}
    words per line, tag width, migration policy); raises
    [Invalid_argument] with a specific message, else returns [t]. *)
val validate : t -> t

val cache_words : t -> int
val cache_lines : t -> int
val sets : t -> int
val line_bytes : t -> int

(** Epochs per timetag phase: [2^(bits-1)]. *)
val phase_epochs : t -> int

(** Stages of the multistage interconnection network. *)
val network_stages : t -> int

(** Human-readable parameter table (the Figure 8 experiment). *)
val describe : t -> (string * string) list
