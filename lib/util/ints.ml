(** Integer helpers: powers of two and ceiling division. *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** [ilog2 n] for [n] a positive power of two. *)
let ilog2 n =
  if not (is_pow2 n) then invalid_arg (Printf.sprintf "ilog2: %d not a power of two" n);
  let rec loop n acc = if n = 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let ceil_div a b =
  if b <= 0 then invalid_arg "ceil_div: non-positive divisor";
  (a + b - 1) / b

(** Round [a] up to the next multiple of [b]. *)
let round_up a b = ceil_div a b * b

let pow2 n =
  if n < 0 || n > 61 then invalid_arg "pow2: exponent out of range";
  1 lsl n
