(** LimitLess directory DIR_NB(i) [2]: a hardware directory with [i]
    pointers per memory line that traps to software when a line acquires
    more than [i] sharers.

    The paper uses LimitLess only in the storage-overhead comparison
    (Figure 5); we additionally give it a timing model — it behaves like
    the full-map protocol except that invalidations of overflowed lines
    pay a software-trap penalty — so it can be exercised in ablations. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = {
  hw : Hwdir.t;
  pointers : int;
  trap_cycles : int;
  mutable traps : int;
}

let name = "LimitLESS"

let default_pointers = 10

let create cfg ~memory_words ~network ~traffic =
  {
    hw = Hwdir.create cfg ~memory_words ~network ~traffic;
    pointers = default_pointers;
    trap_cycles = 200;
    traps = 0;
  }

(* O(1): the presence set keeps its count; a line never fetched has the
   empty [Hwdir.absent] entry *)
let sharers t addr =
  let line = addr / t.hw.Hwdir.cfg.line_words in
  Hscd_util.Bitset.cardinal t.hw.Hwdir.directory.(line).presence

let read t ~proc ~addr ~array ~mark =
  let overflowed = sharers t addr >= t.pointers in
  let r = Hwdir.read t.hw ~proc ~addr ~array ~mark in
  if overflowed && r.Scheme.cls <> Scheme.Hit then begin
    (* the directory must consult the software handler to extend the list *)
    t.traps <- t.traps + 1;
    r.Scheme.latency <- r.Scheme.latency + t.trap_cycles
  end;
  r

let write t ~proc ~addr ~array ~value ~mark =
  let overflowed = sharers t addr > t.pointers in
  let r = Hwdir.write t.hw ~proc ~addr ~array ~value ~mark in
  if overflowed then begin
    t.traps <- t.traps + 1;
    r.Scheme.latency <- r.Scheme.latency + t.trap_cycles
  end;
  r

let epoch_boundary t ~stalls = Hwdir.epoch_boundary t.hw ~stalls

let stats t = Hwdir.stats t.hw

let traps t = t.traps

let memory_image t = Hwdir.memory_image t.hw

(* pointer count is configuration, trap count is a statistic: the
   abstract state is exactly the underlying directory protocol's *)
let snapshot t = Hwdir.snapshot t.hw
