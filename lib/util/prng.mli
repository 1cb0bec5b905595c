(** Deterministic pseudo-random number generation (splitmix64).

    Simulation and workload generation must be reproducible across runs
    and platforms, so this generator is self-contained rather than
    delegating to [Stdlib.Random]. *)

type t

(** Fresh generator; the default seed is fixed (reproducible). *)
val create : ?seed:int64 -> unit -> t

(** Generator seeded from an integer. *)
val of_int : int -> t

(** Independent copy with the same state. *)
val copy : t -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [in_range t lo hi] is uniform in [lo, hi] inclusive. *)
val in_range : t -> int -> int -> int

val bool : t -> bool

(** Uniform in [0, 1). *)
val float : t -> float

(** Uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit
