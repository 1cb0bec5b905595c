(** Write-buffer models for the write-through schemes.

    The paper uses an infinite write buffer by default: writes never stall
    the processor but each one puts a word on the network. Organizing the
    buffer as a small *write cache* (as in the DEC Alpha 21164 [15])
    coalesces repeated writes to the same word within an epoch, removing
    the redundant write traffic that hurts TPI on TRFD [9, 10]. This module
    models the *traffic* effect; correctness-visible memory updates are
    performed eagerly by the schemes (safe because DOALL epochs are
    race-free and barriers drain buffers). *)

(* The write cache holds [n] pending word addresses in [addr.(0..n-1)],
   each with the tick of its latest write; ticks are distinct, so the
   least recently written entry is the one with the smallest tick. *)
type t =
  | Plain
  | Cache of {
      addr : int array;
      tick : int array;
      mutable n : int;
      mutable now : int;
      mutable coalesced : int;
    }

let create (c : Hscd_arch.Config.t) =
  match c.write_buffer with
  | Hscd_arch.Config.Plain_buffer -> Plain
  | Hscd_arch.Config.Write_cache entries ->
    Cache
      { addr = Array.make entries 0; tick = Array.make entries 0; n = 0; now = 0; coalesced = 0 }

let rec index_of addr a i n = if i = n then -1 else if addr.(i) = a then i else index_of addr a (i + 1) n

(** Record a write of [addr]; returns how many words of write traffic the
    memory system sees *now*. *)
let write t a =
  match t with
  | Plain -> 1
  | Cache wc ->
    wc.now <- wc.now + 1;
    let i = index_of wc.addr a 0 wc.n in
    if i >= 0 then begin
      (* coalesce: overwrite the pending entry, no new traffic *)
      wc.coalesced <- wc.coalesced + 1;
      wc.tick.(i) <- wc.now;
      0
    end
    else if wc.n < Array.length wc.addr then begin
      wc.addr.(wc.n) <- a;
      wc.tick.(wc.n) <- wc.now;
      wc.n <- wc.n + 1;
      0
    end
    else begin
      (* evict the least recently written entry: one word reaches memory *)
      let oldest = ref 0 in
      for j = 1 to wc.n - 1 do
        if wc.tick.(j) < wc.tick.(!oldest) then oldest := j
      done;
      wc.addr.(!oldest) <- a;
      wc.tick.(!oldest) <- wc.now;
      1
    end

(** Epoch boundary: drain everything; returns words of write traffic. *)
let drain t =
  match t with
  | Plain -> 0
  | Cache wc ->
    let n = wc.n in
    wc.n <- 0;
    n

let coalesced_writes t = match t with Plain -> 0 | Cache wc -> wc.coalesced
