(** Per-step invariant monitors, layered over any coherence scheme.

    [wrap] decorates a packed scheme so that every read, write and epoch
    boundary flowing through the timing engine is also checked against a
    scheme-independent shadow model:

    - {b value provenance}: no load may return a value that was never
      written to its address (initial memory is zero);
    - {b Time-Read windows}: a [Time_read d] at epoch [e] may only return
      a value the address actually held at some point in epochs
      [e - d .. e] — the architectural contract of the timetag check;
    - {b bypass freshness}: a [Bypass_read] always fetches main memory,
      which write-through keeps current, so it must see the latest write;
    - {b boundary sanity}: epoch boundaries produce one non-negative
      stall per processor, and the monitor's epoch counter (incremented
      in lockstep with every scheme's) advances monotonically once per
      boundary.

    The monitor sees events in the engine's execution order for the
    monitored scheme, so its shadow history is a legal linearization. *)

module Event = Hscd_arch.Event
module Scheme = Hscd_coherence.Scheme

type violation = { epoch : int; proc : int; addr : int; kind : string; detail : string }

let violation_to_string v =
  Printf.sprintf "[%s] epoch %d proc %d addr %d: %s" v.kind v.epoch v.proc v.addr v.detail

type t = {
  processors : int;
  mutable epoch : int;
  mutable boundaries : int;
  history : (int * int) list array;  (** per word: (epoch, value), newest first *)
  mutable violations : violation list;  (** reversed; capped at [max_violations] *)
  mutable nviol : int;
}

let max_violations = 25

let create ~processors ~words =
  {
    processors;
    epoch = 0;
    boundaries = 0;
    history = Array.make (max 1 words) [];
    violations = [];
    nviol = 0;
  }

let report m = List.rev m.violations
let history m addr = m.history.(addr)
let boundaries m = m.boundaries

let viol m ~proc ~addr kind fmt =
  Printf.ksprintf
    (fun detail ->
      if m.nviol < max_violations then
        m.violations <- { epoch = m.epoch; proc; addr; kind; detail } :: m.violations;
      m.nviol <- m.nviol + 1)
    fmt

(** Was [v] the content of [addr] at any time in epochs [>= since]?
    Entry [(e_i, v_i)] is live from [e_i] until the next newer write. *)
let held_since m addr ~since v =
  let rec go next = function
    | [] -> v = 0 && next >= since  (* the initial zero, live until the first write *)
    | (e, value) :: rest -> (value = v && next >= since) || go e rest
  in
  go max_int m.history.(addr)

let ever_written m addr v =
  v = 0 || List.exists (fun (_, value) -> value = v) m.history.(addr)

let on_read m ~proc ~addr ~(mark : Event.rmark) value =
  if addr < 0 || addr >= Array.length m.history then
    viol m ~proc ~addr "bounds" "read outside the memory image"
  else if not (ever_written m addr value) then
    viol m ~proc ~addr "phantom-value" "load returned %d, which was never written here" value
  else
    match mark with
    | Event.Time_read d ->
      if not (held_since m addr ~since:(m.epoch - d) value) then
        viol m ~proc ~addr "stale-time-read"
          "Time-Read(%d) at epoch %d returned %d, older than %d epochs" d m.epoch value d
    | Event.Bypass_read ->
      let current = match m.history.(addr) with [] -> 0 | (_, v) :: _ -> v in
      if value <> current then
        viol m ~proc ~addr "stale-bypass" "bypass read returned %d, memory holds %d" value current
    | Event.Normal_read | Event.Unmarked -> ()

let on_write m ~addr value =
  if addr >= 0 && addr < Array.length m.history then
    m.history.(addr) <- (m.epoch, value) :: m.history.(addr)

let on_boundary m stalls =
  if Array.length stalls <> m.processors then
    viol m ~proc:(-1) ~addr:(-1) "boundary-shape" "%d stall entries for %d processors"
      (Array.length stalls) m.processors;
  Array.iteri
    (fun p s -> if s < 0 then viol m ~proc:p ~addr:(-1) "negative-stall" "stall %d" s)
    stalls;
  m.epoch <- m.epoch + 1;
  m.boundaries <- m.boundaries + 1

(** Decorate a packed scheme instance with this monitor. The wrapped
    module's [create] is inert — the instance is already packed. *)
let wrap m (Scheme.Packed ((module S), s)) : Scheme.packed =
  let module M = struct
    type t = unit

    let name = S.name
    let create _ ~memory_words:_ ~network:_ ~traffic:_ = ()

    let read () ~proc ~addr ~array ~mark =
      let r = S.read s ~proc ~addr ~array ~mark in
      on_read m ~proc ~addr ~mark r.Scheme.value;
      r

    let write () ~proc ~addr ~array ~value ~mark =
      on_write m ~addr value;
      S.write s ~proc ~addr ~array ~value ~mark

    let epoch_boundary () ~stalls =
      S.epoch_boundary s ~stalls;
      on_boundary m stalls

    let stats () = S.stats s
    let memory_image () = S.memory_image s
    let snapshot () = S.snapshot s
  end in
  Scheme.Packed ((module M), ())
