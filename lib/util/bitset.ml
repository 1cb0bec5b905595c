(** Fixed-capacity bit sets, used for directory presence vectors.

    A full-map directory keeps one presence bit per processor per memory
    block, so this structure is on the simulator's hot path. It is backed
    by an int array with 62 usable bits per word, exactly
    [ceil (capacity / 62)] words. Iteration walks the words, skips zero
    words and peels set bits lowest first, so an invalidation at P=1024
    costs 17 word tests plus one step per sharer, not 1024 bit tests.
    [count] is kept up to date by every mutation, so [cardinal] is O(1). *)

type t = { words : int array; capacity : int; mutable count : int }

let bits_per_word = 62

let create capacity =
  assert (capacity >= 0);
  { words = Array.make ((capacity + bits_per_word - 1) / bits_per_word) 0; capacity; count = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.capacity)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word and bit = 1 lsl (i mod bits_per_word) in
  let old = t.words.(w) in
  if old land bit = 0 then begin
    t.words.(w) <- old lor bit;
    t.count <- t.count + 1
  end

let remove t i =
  check t i;
  let w = i / bits_per_word and bit = 1 lsl (i mod bits_per_word) in
  let old = t.words.(w) in
  if old land bit <> 0 then begin
    t.words.(w) <- old land lnot bit;
    t.count <- t.count - 1
  end

let clear t =
  if t.count > 0 then begin
    Array.fill t.words 0 (Array.length t.words) 0;
    t.count <- 0
  end

let cardinal t = t.count

let is_empty t = t.count = 0

(* Index of the single set bit of [b], a power of two below [2^62]. *)
let bit_index b =
  let k = ref 0 and b = ref b in
  if !b lsr 32 <> 0 then (k := 32; b := !b lsr 32);
  if !b lsr 16 <> 0 then (k := !k + 16; b := !b lsr 16);
  if !b lsr 8 <> 0 then (k := !k + 8; b := !b lsr 8);
  if !b lsr 4 <> 0 then (k := !k + 4; b := !b lsr 4);
  if !b lsr 2 <> 0 then (k := !k + 2; b := !b lsr 2);
  if !b lsr 1 <> 0 then k := !k + 1;
  !k

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let rest = ref words.(w) in
    while !rest <> 0 do
      let low = !rest land (- !rest) in
      f ((w * bits_per_word) + bit_index low);
      rest := !rest lxor low
    done
  done

(* Top-level, so [next] builds no closure. *)
let rec next_from words w rest =
  if rest <> 0 then (w * bits_per_word) + bit_index (rest land (- rest))
  else if w + 1 < Array.length words then next_from words (w + 1) words.(w + 1)
  else -1

let next t i =
  if i >= t.capacity then -1
  else
    let w = i / bits_per_word in
    next_from t.words w (t.words.(w) land lnot ((1 lsl (i mod bits_per_word)) - 1))

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let copy t = { words = Array.copy t.words; capacity = t.capacity; count = t.count }

let equal a b = a.capacity = b.capacity && a.words = b.words
