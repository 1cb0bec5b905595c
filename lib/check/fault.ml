(** Fault injection: wrappers that graft realistic coherence bugs onto a
    correct scheme, used to validate that the differential oracle and the
    shrinker actually catch and minimize them (mutation testing of the
    test oracle itself).

    - [Stale_time_read k] widens every Time-Read window by [k] epochs —
      the classic off-by-one in the timetag age comparison, which lets a
      processor consume values older than the compiler proved safe;
    - [Ignore_time_read] drops the age check entirely (a Time-Read
      behaves like a Normal read and may hit any stale resident copy);
    - [Skip_epoch_boundary] loses the scheme's epoch-boundary work
      (epoch-counter increments, two-phase resets, buffer drains) — the
      stuck-counter failure mode of timetag hardware;
    - [Corrupt_read_value n] returns an off-by-one value on every n-th
      read — a data-path fault the provenance monitor must flag. *)

module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme

type t =
  | Stale_time_read of int
  | Ignore_time_read
  | Skip_epoch_boundary
  | Corrupt_read_value of int

let name = function
  | Stale_time_read k -> Printf.sprintf "stale-time-read+%d" k
  | Ignore_time_read -> "ignore-time-read"
  | Skip_epoch_boundary -> "skip-epoch-boundary"
  | Corrupt_read_value n -> Printf.sprintf "corrupt-read-%d" n

let wrap fault ~processors:(_ : int) (Scheme.Packed ((module S), s)) : Scheme.packed =
  let reads = ref 0 in
  let module F = struct
    type t = unit

    let name = S.name ^ "!" ^ name fault
    let create _ ~memory_words:_ ~network:_ ~traffic:_ = ()

    let read () ~proc ~addr ~array ~mark =
      let mark =
        match (fault, mark) with
        | Stale_time_read k, Event.Time_read d -> Event.Time_read (d + k)
        | Ignore_time_read, Event.Time_read _ -> Event.Normal_read
        | _ -> mark
      in
      let r = S.read s ~proc ~addr ~array ~mark in
      match fault with
      | Corrupt_read_value n ->
        incr reads;
        if !reads mod n = 0 then r.Scheme.value <- r.Scheme.value + 1;
        r
      | _ -> r

    let write () ~proc ~addr ~array ~value ~mark = S.write s ~proc ~addr ~array ~value ~mark

    let epoch_boundary () ~stalls =
      match fault with
      | Skip_epoch_boundary -> Array.fill stalls 0 (Array.length stalls) 0
      | _ -> S.epoch_boundary s ~stalls

    let stats () = S.stats s
    let memory_image () = S.memory_image s
    let snapshot () = S.snapshot s
  end in
  Scheme.Packed ((module F), ())

(* ------------------------------------------------------------------ *)
(* Runner chaos: faults against the *harness* rather than the schemes. *)
(* ------------------------------------------------------------------ *)

module Chaos = struct
  exception Injected of string

  type plan = {
    mu : Mutex.t;
    attempts : (string, int) Hashtbl.t;
    crash_first : (string * int) list;
    hang_first : (string * float) list;
    released : bool Atomic.t;
  }

  let plan ?(crash_first = []) ?(hang_first = []) () =
    {
      mu = Mutex.create ();
      attempts = Hashtbl.create 16;
      crash_first;
      hang_first;
      released = Atomic.make false;
    }

  let attempts p cell =
    Mutex.protect p.mu (fun () -> Option.value ~default:0 (Hashtbl.find_opt p.attempts cell))

  let release p = Atomic.set p.released true

  (* Called at the start of every attempt of [cell] (tasks run on worker
     domains, hence the mutex around the attempt counter). Crashes are
     deterministic: the first [k] attempts raise, the next succeeds — the
     supervised pool's retry must converge. Hangs are cooperative: the
     worker spins until [release] (the pool cannot kill a domain, so the
     test ends the hang after asserting the timeout path fired). *)
  let strike p cell =
    let n =
      Mutex.protect p.mu (fun () ->
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt p.attempts cell) in
          Hashtbl.replace p.attempts cell n;
          n)
    in
    (match List.assoc_opt cell p.hang_first with
    | Some max_hang when n = 1 ->
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get p.released)) && Unix.gettimeofday () -. t0 < max_hang do
        Unix.sleepf 0.005
      done
    | _ -> ());
    match List.assoc_opt cell p.crash_first with
    | Some k when n <= k -> raise (Injected cell)
    | _ -> ()

  (* --- file-level chaos: what a crash or bad disk does to artifacts --- *)

  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s

  let write_file path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc

  let corrupt_file path ~byte =
    let b = Bytes.of_string (read_file path) in
    let pos = ((byte mod Bytes.length b) + Bytes.length b) mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
    write_file path (Bytes.to_string b)

  let truncate_file path ~drop =
    let s = read_file path in
    write_file path (String.sub s 0 (max 0 (String.length s - drop)))
end
