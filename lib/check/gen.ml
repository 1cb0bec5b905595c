(** Randomized well-formed epoch/trace generation for differential
    fuzzing.

    The generator plays both the programmer's and the compiler's role: it
    builds race-free epoch programs (per parallel epoch, every address
    written outside a critical section is private to one task; critical
    sections touch a dedicated lock region with bypass marks only) and it
    stamps each read with a mark drawn from what {!Rules} says is sound
    for every scheme under the target machine configuration.

    Adversarial modes target the corner cases the paper calls out:
    timetag recycling near the 2^(bits-1)-epoch two-phase reset, task
    migration under dynamic self-scheduling (which forbids owner-aligned
    Normal marks), and false-sharing layouts that split one cache line's
    words across different writer tasks. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Prng = Hscd_util.Prng
module Trace = Hscd_sim.Trace
module Shape = Hscd_lang.Shape

type adversary = Plain | Timetag_wrap | Migration | False_sharing_layout

let adversary_name = function
  | Plain -> "plain"
  | Timetag_wrap -> "timetag-wrap"
  | Migration -> "migration"
  | False_sharing_layout -> "false-sharing"

type params = {
  procs : int;
  epochs : int;
  max_tasks : int;  (** per parallel epoch *)
  data_lines : int;  (** shared-data size in cache lines *)
  line_words : int;
  timetag_bits : int;
  cache_bytes : int;
  scheduling : Config.scheduling;
  migration_rate : float;
  serial_prob : float;
  sharing : float;  (** fraction of reads aimed at data not written this epoch *)
  write_prob : float;
  lock_prob : float;
  compute_prob : float;
  max_events : int;  (** per task *)
  adversary : adversary;
}

let describe p =
  Printf.sprintf
    "%s: p=%d epochs=%d tasks<=%d lines=%dx%dw tag=%db cache=%dB %s mig=%.2f lock=%.2f ev<=%d"
    (adversary_name p.adversary) p.procs p.epochs p.max_tasks p.data_lines p.line_words
    p.timetag_bits p.cache_bytes
    (Config.scheduling_name p.scheduling)
    p.migration_rate p.lock_prob p.max_events

let cfg_of p =
  Config.validate
    {
      Config.default with
      processors = p.procs;
      line_words = p.line_words;
      timetag_bits = p.timetag_bits;
      cache_bytes = p.cache_bytes;
      scheduling = p.scheduling;
      migration_rate = p.migration_rate;
    }

let random_params prng =
  let adversary =
    Prng.choose prng [| Plain; Plain; Plain; Timetag_wrap; Migration; False_sharing_layout |]
  in
  let procs = Prng.choose prng [| 2; 4; 8 |] in
  let line_words = Prng.choose prng [| 1; 2; 4; 8 |] in
  let scheduling =
    match adversary with
    | Migration -> Config.Dynamic
    | _ -> Prng.choose prng [| Config.Block; Config.Block; Config.Cyclic; Config.Dynamic |]
  in
  let migration_rate =
    if scheduling = Config.Dynamic && (adversary = Migration || Prng.bool prng) then 0.3 else 0.0
  in
  let timetag_bits =
    match adversary with
    | Timetag_wrap -> Prng.in_range prng 2 4
    | _ -> Prng.choose prng [| 4; 8 |]
  in
  let phase = 1 lsl (timetag_bits - 1) in
  let epochs =
    match adversary with
    | Timetag_wrap -> min 40 (Prng.in_range prng (2 * phase) (3 * phase))
    | _ -> Prng.in_range prng 3 16
  in
  {
    procs;
    epochs;
    max_tasks = Prng.in_range prng 1 (2 * procs);
    data_lines = Prng.in_range prng 2 16;
    line_words;
    timetag_bits;
    cache_bytes = Prng.choose prng [| 512; 1024; 65536 |];
    scheduling;
    migration_rate;
    serial_prob = 0.2;
    sharing = 0.2 +. (0.6 *. Prng.float prng);
    write_prob = (if adversary = Timetag_wrap then 0.15 else 0.35);
    lock_prob = Prng.choose prng [| 0.0; 0.05; 0.15 |];
    compute_prob = 0.15;
    max_events = Prng.in_range prng 4 24;
    adversary;
  }

let generate prng p =
  let cfg = cfg_of p in
  let data_words = p.data_lines * p.line_words in
  let lock_words = p.line_words in
  let words = data_words + lock_words in
  let layout : Shape.layout =
    let arrays = Hashtbl.create 4 in
    Hashtbl.replace arrays "A" { Shape.name = "A"; dims = [ data_words ]; size = data_words; base = 0 };
    Hashtbl.replace arrays "L"
      { Shape.name = "L"; dims = [ lock_words ]; size = lock_words; base = data_words };
    { Shape.arrays; total_words = words }
  in
  let array_of addr = if addr < data_words then "A" else "L" in
  let rules = Rules.create cfg ~words in
  let next_val = ref 0 in
  let fresh () = incr next_val; !next_val in
  let read_mark ~proc addr =
    match Rules.window rules addr with
    | None -> if Prng.float prng < 0.25 then Event.Unmarked else Event.Normal_read
    | Some dmax ->
      let roll = Prng.float prng in
      if Rules.current rules ~proc addr && roll < 0.5 then Event.Normal_read
      else if roll >= 0.85 then Event.Bypass_read
      else Event.Time_read (if Prng.float prng < 0.8 || dmax = 0 then dmax else Prng.int prng dmax)
  in
  let epochs = ref [] in
  for _ = 1 to p.epochs do
    let serial = Prng.float prng < p.serial_prob in
    let ntasks = if serial then 1 else 1 + Prng.int prng p.max_tasks in
    (* per-epoch exclusive ownership of written data words *)
    let owner = Array.make words (-1) in
    let own = Array.make ntasks [] in
    if serial then
      (* a serial task owns the whole data region *)
      for a = data_words - 1 downto 0 do
        owner.(a) <- 0;
        own.(0) <- a :: own.(0)
      done
    else begin
      (match p.adversary with
      | False_sharing_layout ->
        (* split each chosen line's words across distinct writer tasks *)
        let nlines = 1 + Prng.int prng (max 1 (p.data_lines / 2)) in
        for _ = 1 to nlines do
          let line = Prng.int prng p.data_lines in
          for k = 0 to p.line_words - 1 do
            let addr = (line * p.line_words) + k in
            if owner.(addr) < 0 then begin
              let rank = (line + k) mod ntasks in
              owner.(addr) <- rank;
              own.(rank) <- addr :: own.(rank)
            end
          done
        done
      | _ -> ());
      for rank = 0 to ntasks - 1 do
        let n_own = Prng.int prng 4 in
        for _ = 1 to n_own do
          let addr = Prng.int prng data_words in
          if owner.(addr) < 0 then begin
            owner.(addr) <- rank;
            own.(rank) <- addr :: own.(rank)
          end
        done
      done
    end;
    let pick_shared () =
      (* a data word not written this epoch, if one can be found quickly *)
      let rec try_pick n =
        if n = 0 then None
        else
          let addr = Prng.int prng data_words in
          if owner.(addr) < 0 then Some addr else try_pick (n - 1)
      in
      try_pick 8
    in
    let tasks =
      Array.init ntasks (fun rank ->
          let proc = Rules.known_proc rules ~serial ~ntasks rank in
          let owned = Array.of_list own.(rank) in
          let events = ref [] in
          let emit ev = events := ev :: !events in
          let emit_read addr =
            let mark = read_mark ~proc addr in
            Rules.read rules ~task:rank ~proc ~in_cs:false addr mark;
            emit (Event.Read { addr; mark; value = 0; array = array_of addr })
          in
          let emit_write addr =
            emit (Event.Write { addr; mark = Event.Normal_write; value = fresh (); array = array_of addr });
            Rules.write rules ~task:rank ~proc ~in_cs:false addr
          in
          let n_ev = 1 + Prng.int prng p.max_events in
          for _ = 1 to n_ev do
            let roll = Prng.float prng in
            if roll < p.lock_prob then begin
              (* critical section over the lock region: serialized
                 read-modify-writes, uncached on every scheme *)
              emit Event.Lock;
              let n_acc = 1 + Prng.int prng 2 in
              for _ = 1 to n_acc do
                let addr = data_words + Prng.int prng lock_words in
                emit (Event.Read { addr; mark = Event.Bypass_read; value = 0; array = "L" });
                if Prng.float prng < 0.8 then begin
                  emit
                    (Event.Write
                       { addr; mark = Event.Bypass_write; value = fresh (); array = "L" });
                  Rules.write rules ~task:rank ~proc ~in_cs:true addr
                end
              done;
              emit Event.Unlock
            end
            else if roll < p.lock_prob +. p.compute_prob then
              emit (Event.Compute (1 + Prng.int prng 16))
            else if
              roll < p.lock_prob +. p.compute_prob +. p.write_prob && Array.length owned > 0
            then emit_write (Prng.choose prng owned)
            else begin
              let shared = Array.length owned = 0 || Prng.float prng < p.sharing in
              match (if shared then pick_shared () else None) with
              | Some addr -> emit_read addr
              | None ->
                if Array.length owned > 0 then emit_read (Prng.choose prng owned)
                else emit (Event.Compute 1)
            end
          done;
          { Trace.iter = rank; events = Array.of_list (List.rev !events) })
    in
    let kind =
      if serial then Trace.Serial else Trace.Parallel { lo = 0; hi = ntasks - 1 }
    in
    epochs := { Trace.kind; tasks } :: !epochs;
    Rules.advance rules
  done;
  Golden.resolve
    {
      Trace.epochs = Array.of_list (List.rev !epochs);
      layout;
      golden_memory = Array.make words 0;
      total_events = 0;
    }
