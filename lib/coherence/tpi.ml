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

(* Lazy mode: materialize the last reset's effect on one line at
   observation time — wipe every valid word whose timetag predates the
   cutoff and latch the line-level reset flag, exactly as the eager scan
   would have. Whole-line, because [reset_invalidated] is line-granular
   (a surviving word's rejected reuse classifies as Reset_inv when a
   companion was wiped). *)
let settle t (line : Cache.line) =
  if (not t.eager) && t.reset_cutoff > min_int then begin
    let any = ref false in
    for k = 0 to Array.length line.word_valid - 1 do
      if line.word_valid.(k) && line.meta.(k) <= t.reset_cutoff then begin
        line.word_valid.(k) <- false;
        any := true
      end
    done;
    if !any then line.reset_invalidated <- true
  end

(* A word whose age reached the previous phase boundary has been wiped by
   the two-phase reset — eagerly at the boundary or by [settle] just
   before this check — so a valid word's tag is always
   hardware-representable. *)
let word_hit t (line : Cache.line) ~off ~(mark : Event.rmark) =
  line.word_valid.(off)
  &&
  match mark with
  | Event.Normal_read | Event.Unmarked -> true
  | Event.Time_read d -> age t line.meta.(off) <= d
  | Event.Bypass_read -> false

let read t ~proc ~addr ~array:(_ : int) ~mark =
  let w = t.w in
  let off = addr land (w.cfg.line_words - 1) in
  match mark with
  | Event.Bypass_read ->
    (* fetch the word uncached *)
    Traffic.add_read w.traffic 1;
    Traffic.add_control w.traffic Scheme.control_words;
    let cls =
      match Cache.probe w.caches.(proc) addr with
      | Some line ->
        settle t line;
        if line.word_valid.(off) then Wt_common.stale_copy_class w ~proc ~line addr
        else Scheme.Uncached
      | None -> Scheme.Uncached
    in
    Scheme.set_result w.res ~latency:(Wt_common.word_fetch_latency w)
      ~value:(Memstate.read w.mem addr) ~cls
  | _ -> (
    match Cache.find w.caches.(proc) addr with
    | Some line ->
      settle t line;
      if word_hit t line ~off ~mark then begin
        line.touched.(off) <- true;
        Scheme.set_result w.res ~latency:w.cfg.hit_cycles ~value:line.values.(off)
          ~cls:Scheme.Hit
      end
      else begin
        let cls =
          if line.word_valid.(off) then
            (* resident but too old for the Time-Read window *)
            Wt_common.stale_copy_class w ~proc ~line addr
          else if line.reset_invalidated then Scheme.Reset_inv
          else Wt_common.absent_class w ~proc addr
        in
        let line =
          Wt_common.fetch_line w ~proc ~addr ~ref_meta:t.epoch ~other_meta:(t.epoch - 1)
        in
        Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
          ~value:line.values.(off) ~cls
      end
    | None ->
      let cls = Wt_common.absent_class w ~proc addr in
      let line =
        Wt_common.fetch_line w ~proc ~addr ~ref_meta:t.epoch ~other_meta:(t.epoch - 1)
      in
      Scheme.set_result w.res ~latency:(Wt_common.line_fetch_latency w)
        ~value:line.values.(off) ~cls)

let write t ~proc ~addr ~array:(_ : int) ~value ~mark =
  (* Settle before the store probe: a write revalidates its word with a
     fresh timetag, which would otherwise erase the evidence that the old
     copy predated the reset (the sticky [reset_invalidated] flag the
     eager scan sets). Free until the first reset fires. *)
  if (not t.eager) && t.reset_cutoff > min_int then begin
    match Cache.probe t.w.caches.(proc) addr with
    | Some line -> settle t line
    | None -> ()
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
        Cache.iter_lines caches.(p) (fun line ->
            let any_invalidated = ref false in
            for k = 0 to Array.length line.word_valid - 1 do
              if line.word_valid.(k) && age t line.meta.(k) >= t.phase then begin
                line.word_valid.(k) <- false;
                any_invalidated := true
              end
            done;
            if !any_invalidated then line.reset_invalidated <- true)
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
