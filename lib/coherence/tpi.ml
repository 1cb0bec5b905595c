(** TPI — the paper's Two-Phase Invalidation scheme.

    Hardware model: each processor keeps an epoch counter (incremented at
    every epoch boundary, all processors in lockstep thanks to barriers)
    and a timetag per cache *word*. A write stamps the word with the
    current epoch; an allocating line fill stamps the referenced word with
    the current epoch and its companions with epoch−1 (the paper's
    "R counter − 1" rule, which neutralizes same-epoch cross-task reuse of
    line companions). A [Time_read d] may hit only if the word's age is at
    most [d] epochs. Timetags are recycled by the two-phase reset: every
    [2^(bits-1)] epochs the cache flash-invalidates all words at least one
    phase old, stalling the processor for the reset cost; ages therefore
    never exceed the tag range, keeping the hardware comparison exact.

    The reset is modelled two ways. The default is lazy, Tardis-style:
    the boundary only records the reset cutoff ([epoch − phase] at the
    reset instant) and every access first {e settles} the line it touches,
    wiping words whose timetag is at or below the cutoff — O(1) per
    access instead of an O(P × cache capacity) flash scan per reset
    epoch. The paper's eager scan is kept behind
    [Config.tpi_eager_reset] as a differential oracle; both modes charge
    the same stalls and produce bit-identical results (gated by the test
    suite). Equivalence: word timetags only move forward (writes and
    fills stamp the current epoch, always above every past cutoff), the
    cutoff is monotone, and settling runs before any validity check or
    miss classification on the line — so each word is observed exactly as
    the eager scan would have left it. *)

module Cache = Hscd_cache.Cache
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = {
  w : Wt_common.t;
  mutable epoch : int;
  phase : int;  (** reset period: 2^(timetag_bits - 1) epochs *)
  eager : bool;  (** flash-invalidate at reset epochs (the differential oracle) *)
  mutable reset_cutoff : int;
      (** lazy mode: words tagged at or below this were wiped by the last
          reset; [min_int] until the first reset fires *)
}

let name = "TPI"

let create cfg ~memory_words ~network ~traffic =
  {
    w = Wt_common.create cfg ~memory_words ~network ~traffic;
    epoch = 0;
    phase = Config.phase_epochs cfg;
    eager = cfg.Config.tpi_eager_reset;
    reset_cutoff = min_int;
  }

let age t tag = t.epoch - tag

(* Wipe every valid word of frame [f] whose timetag is at or below
   [cutoff] and latch the frame's reset flag if any was wiped. The eager
   scan applies it at the reset with [cutoff = epoch - phase] (a word at
   least one phase old); the lazy mode applies it with the recorded
   cutoff when an access first observes the frame, so each word is seen
   exactly as the eager scan would have left it. Whole-line, because the
   reset flag is line-granular (a surviving word's rejected reuse
   classifies as Reset_inv when a companion was wiped). *)
let wipe_older (c : Cache.t) f ~cutoff =
  let lw = c.line_words in
  let bits = c.bits.(f) in
  let wiped = ref 0 in
  for k = 0 to lw - 1 do
    if bits land (1 lsl k) <> 0 && c.meta.((f * lw) + k) <= cutoff then
      wiped := !wiped lor (1 lsl k)
  done;
  if !wiped <> 0 then c.bits.(f) <- bits land lnot !wiped lor Cache.reset_invalidated_bit

let settle t c f =
  if (not t.eager) && t.reset_cutoff > min_int then wipe_older c f ~cutoff:t.reset_cutoff

(* A word whose age reached the previous phase boundary has been wiped by
   the two-phase reset — eagerly at the boundary or by [settle] just
   before this check — so a valid word's tag is always
   hardware-representable. *)
let word_hit t (c : Cache.t) f ~off ~(mark : Event.rmark) =
  c.bits.(f) land (1 lsl off) <> 0
  &&
  match mark with
  | Event.Normal_read | Event.Unmarked -> true
  | Event.Time_read d -> age t c.meta.((f * c.line_words) + off) <= d
  | Event.Bypass_read -> false

let read t ~proc ~addr ~array:(_ : int) ~mark =
  let w = t.w in
  let c = w.caches.(proc) in
  let off = addr land (w.cfg.line_words - 1) in
  match mark with
  | Event.Bypass_read ->
    (* fetch the word uncached *)
    Traffic.add_read w.traffic 1;
    Traffic.add_control w.traffic Scheme.control_words;
    let f = Cache.probe c addr in
    let cls =
      if f < 0 then Scheme.Uncached
      else begin
        settle t c f;
        if c.bits.(f) land (1 lsl off) <> 0 then Wt_common.stale_copy_class w ~proc ~frame:f addr
        else Scheme.Uncached
      end
    in
    Scheme.set_result w.res ~latency:(Wt_common.word_fetch_latency w)
      ~value:(Memstate.read w.mem addr) ~cls
  | _ ->
    let f = Cache.find c addr in
    if f >= 0 then settle t c f;
    if f >= 0 && word_hit t c f ~off ~mark then begin
      c.bits.(f) <- c.bits.(f) lor (1 lsl (Cache.touched_shift + off));
      Scheme.set_result w.res ~latency:w.cfg.hit_cycles
        ~value:c.value.((f * w.cfg.line_words) + off) ~cls:Scheme.Hit
    end
    else begin
      let cls =
        if f < 0 then Wt_common.absent_class w ~proc addr
        else if c.bits.(f) land (1 lsl off) <> 0 then
          (* resident but too old for the Time-Read window *)
          Wt_common.stale_copy_class w ~proc ~frame:f addr
        else if c.bits.(f) land Cache.reset_invalidated_bit <> 0 then Scheme.Reset_inv
        else Wt_common.absent_class w ~proc addr
      in
      let f = Wt_common.fetch_line w ~proc ~addr ~ref_meta:t.epoch ~other_meta:(t.epoch - 1) in
      Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
        ~value:c.value.((f * w.cfg.line_words) + off) ~cls
    end

let write t ~proc ~addr ~array:(_ : int) ~value ~mark =
  (* Settle before the store probe: a write revalidates its word with a
     fresh timetag, which would otherwise erase the evidence that the old
     copy predated the reset (the sticky reset flag the eager scan sets).
     Free until the first reset fires. *)
  if (not t.eager) && t.reset_cutoff > min_int then begin
    let c = t.w.caches.(proc) in
    let f = Cache.probe c addr in
    if f >= 0 then settle t c f
  end;
  match mark with
  | Event.Normal_write ->
    Wt_common.write_through t.w ~proc ~addr ~value ~meta:t.epoch ~other_meta:(t.epoch - 1)
  | Event.Bypass_write -> Wt_common.write_bypass t.w ~proc ~addr ~value ~meta:t.epoch

let epoch_boundary t ~stalls =
  let w = t.w in
  Wt_common.drain_buffers w;
  t.epoch <- t.epoch + 1;
  if t.epoch mod t.phase = 0 then begin
    w.st.two_phase_resets <- w.st.two_phase_resets + 1;
    Array.fill stalls 0 (Array.length stalls) w.cfg.two_phase_reset_cycles;
    if t.eager then begin
      let caches = w.Wt_common.caches in
      for p = 0 to Array.length caches - 1 do
        let c = caches.(p) in
        for f = 0 to c.frames - 1 do
          if c.state.(f) <> Cache.invalid_state then wipe_older c f ~cutoff:(t.epoch - t.phase)
        done
      done
    end
    else t.reset_cutoff <- t.epoch - t.phase
  end
  else Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.w.st

let memory_image t = t.w.Wt_common.mem.Memstate.values

(* the epoch counter is state (word ages are [epoch - meta]); the phase
   is config, not state, and the lazy reset cutoff is a function of the
   epoch, so neither needs encoding *)
let snapshot t =
  let b = Buffer.create 256 in
  Scheme.Snap.int b t.epoch;
  Scheme.Snap.sep b;
  Wt_common.snapshot_into b t.w;
  Buffer.contents b
