(** Integer helpers: powers of two and ceiling division. *)

val is_pow2 : int -> bool

(** Base-2 logarithm of a positive power of two; raises [Invalid_argument]
    otherwise. *)
val ilog2 : int -> int

(** Ceiling division; raises [Invalid_argument] on a non-positive divisor. *)
val ceil_div : int -> int -> int

(** Round up to the next multiple. *)
val round_up : int -> int -> int

(** [pow2 n] is [2^n] for [0 <= n <= 61]. *)
val pow2 : int -> int
