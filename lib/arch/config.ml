(** Machine configuration.

    Defaults reproduce Figure 8 of the paper: a 16-processor Cray-T3D-like
    machine with single-issue CPUs (1-cycle ALU), 64 KB direct-mapped
    lock-up-free data caches with 4-word (32-bit) lines, 1-cycle hits,
    100-cycle base miss latency, an analytic multistage network [24],
    8-bit timetags and a 128-cycle two-phase reset. *)

type scheduling =
  | Block  (** iteration space split into contiguous per-processor chunks *)
  | Cyclic  (** iteration [r] on processor [r mod p] *)
  | Dynamic  (** self-scheduling: next free processor takes the next task *)

let scheduling_name = function Block -> "block" | Cyclic -> "cyclic" | Dynamic -> "dynamic"

type write_buffer = Plain_buffer | Write_cache of int  (** entries; coalesces redundant writes *)

type consistency =
  | Weak  (** writes retire through buffers; only reads stall (default) *)
  | Sequential  (** every write stalls for its full memory/coherence latency *)

let consistency_name = function Weak -> "weak" | Sequential -> "sequential"

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

let default =
  {
    processors = 16;
    cache_bytes = 64 * 1024;
    line_words = 4;
    word_bytes = 4;
    assoc = 1;
    timetag_bits = 8;
    hit_cycles = 1;
    miss_base_cycles = 100;
    word_transfer_cycles = 12;
    two_phase_reset_cycles = 128;
    barrier_cycles = 50;
    lock_cycles = 20;
    switch_degree = 4;
    scheduling = Block;
    write_buffer = Plain_buffer;
    consistency = Weak;
    migration_rate = 0.0;
    tpi_eager_reset = false;
  }

let max_line_words = 16

let validate t =
  let open Hscd_util.Ints in
  if t.processors <= 0 then invalid_arg "Config: processors must be positive";
  if not (is_pow2 t.line_words) then invalid_arg "Config: line_words must be a power of two";
  if t.line_words > max_line_words then invalid_arg "Config: line_words must be at most 16";
  if not (is_pow2 (t.cache_bytes / t.word_bytes)) then
    invalid_arg "Config: cache size in words must be a power of two";
  if t.assoc < 1 then invalid_arg "Config: associativity must be >= 1";
  (match t.write_buffer with
  | Write_cache n when n < 1 -> invalid_arg "Config: a write cache needs at least one entry"
  | Write_cache _ | Plain_buffer -> ());
  if t.timetag_bits < 2 || t.timetag_bits > 30 then
    invalid_arg "Config: timetag_bits out of [2,30]";
  if t.switch_degree < 2 then invalid_arg "Config: switch_degree must be >= 2";
  if t.migration_rate < 0.0 || t.migration_rate > 1.0 then
    invalid_arg "Config: migration_rate out of [0,1]";
  if t.migration_rate > 0.0 && t.scheduling <> Dynamic then
    invalid_arg "Config: task migration requires dynamic scheduling";
  t

let cache_words t = t.cache_bytes / t.word_bytes
let cache_lines t = cache_words t / t.line_words
let sets t = cache_lines t / t.assoc
let line_bytes t = t.line_words * t.word_bytes

(** Epochs per timetag phase: tags live [2^(bits-1)] epochs before the
    two-phase reset recycles them. *)
let phase_epochs t = 1 lsl (t.timetag_bits - 1)

(** Stages of the multistage interconnection network. *)
let network_stages t =
  let rec stages n acc = if n >= t.processors then acc else stages (n * t.switch_degree) (acc + 1) in
  max 1 (stages 1 0)

let describe t =
  [
    ("processors", string_of_int t.processors);
    ("cache", Printf.sprintf "%d KB, %d-way, %d-word lines" (t.cache_bytes / 1024) t.assoc t.line_words);
    ("cache hit", Printf.sprintf "%d cycle" t.hit_cycles);
    ("base miss latency", Printf.sprintf "%d cycles" t.miss_base_cycles);
    ("word transfer", Printf.sprintf "%d cycles/word" t.word_transfer_cycles);
    ("timetag", Printf.sprintf "%d bits" t.timetag_bits);
    ("two-phase reset", Printf.sprintf "%d cycles" t.two_phase_reset_cycles);
    ("network", Printf.sprintf "%d-stage multistage, %dx%d switches (analytic model)"
       (network_stages t) t.switch_degree t.switch_degree);
    ("scheduling", scheduling_name t.scheduling);
    ("write buffer", match t.write_buffer with
      | Plain_buffer -> "infinite plain buffer"
      | Write_cache n -> Printf.sprintf "%d-entry write cache" n);
    ("consistency", consistency_name t.consistency);
  ]
