(* Array-based binary min-heap over (key, value) pairs, ordered by key
   then value. The boxed reference replay uses it as the ready queue:
   key = processor clock, value = processor index, so ties resolve to the
   lowest index — the same tie-break as a linear lowest-clock scan. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
}

let create capacity =
  let cap = max 1 capacity in
  { keys = Array.make cap 0; vals = Array.make cap 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let less t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.vals.(i) < t.vals.(j))

let swap t i j =
  let k = t.keys.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && less t l i then l else i in
  let m = if r < t.size && less t r m then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let push t ~key v =
  if t.size = Array.length t.keys then begin
    let cap = 2 * Array.length t.keys in
    let keys = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.vals <- vals
  end;
  t.keys.(t.size) <- key;
  t.vals.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and v = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      sift_down t 0
    end;
    Some (key, v)
  end
