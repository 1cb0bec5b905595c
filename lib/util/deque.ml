(* Ring buffer over a plain array: [head] indexes the front element,
   [size] elements live at head, head+1, ... (mod capacity). The array is
   made on the first push, filled with the pushed element, so no slot is
   ever boxed in an option; a popped or cleared slot keeps its old value
   until overwritten. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable size : int;
  hint : int;  (** capacity of the first array *)
}

let create ?(capacity = 8) () = { buf = [||]; head = 0; size = 0; hint = max 1 capacity }

let length t = t.size
let is_empty t = t.size = 0

(* make room for one more element; [x] fills the new array's free slots *)
let grow t x =
  let cap = Array.length t.buf in
  let buf = Array.make (if cap = 0 then t.hint else 2 * cap) x in
  for i = 0 to t.size - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.size = Array.length t.buf then grow t x;
  t.buf.((t.head + t.size) mod Array.length t.buf) <- x;
  t.size <- t.size + 1

let pop_front_or t ~empty =
  if t.size = 0 then empty
  else begin
    let x = t.buf.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.size <- t.size - 1;
    x
  end

let pop_front t = if t.size = 0 then None else Some (pop_front_or t ~empty:t.buf.(0))

let clear t =
  t.head <- 0;
  t.size <- 0

let to_list t = List.init t.size (fun i -> t.buf.((t.head + i) mod Array.length t.buf))
