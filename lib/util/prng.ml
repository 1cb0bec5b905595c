(** Deterministic pseudo-random number generation.

    The simulator and the synthetic workloads must be reproducible across
    runs and platforms, so we provide a self-contained splitmix64 generator
    instead of relying on [Stdlib.Random]'s unspecified algorithm. *)

type t = { mutable state : int64 }

let create ?(seed = 0x9E3779B97F4A7C15L) () = { state = seed }

let of_int seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 step: a well-known 64-bit mixer with full period. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** [in_range t lo hi] is uniform in [lo, hi] inclusive. *)
let in_range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** [float t] is uniform in [0, 1). *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

(** [choose t arr] picks a uniform element of a non-empty array. *)
let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
