(** Top-level pipeline: source program → sema → compiler marking → trace →
    per-scheme simulation. This is the API the experiments, examples and
    CLI drive. *)

module Ast = Hscd_lang.Ast
module Sema = Hscd_lang.Sema
module Config = Hscd_arch.Config
module Marking = Hscd_compiler.Marking
module Scheme = Hscd_coherence.Scheme
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Err = Hscd_util.Hscd_error
module Pool = Hscd_util.Pool
module Journal = Hscd_util.Journal

type scheme_kind = Base | SC | TPI | HW | LimitLESS | VC | INV

let scheme_name = function
  | Base -> "BASE"
  | SC -> "SC"
  | TPI -> "TPI"
  | HW -> "HW"
  | LimitLESS -> "LimitLESS"
  | VC -> "VC"
  | INV -> "INV"

(** The four schemes of the paper's evaluation. *)
let all_schemes = [ Base; SC; TPI; HW ]

(** Plus the related-work schemes built as extensions: INV [35], VC [14]
    and LimitLESS [2]. *)
let extended_schemes = [ Base; SC; INV; VC; TPI; HW; LimitLESS ]

let pack kind cfg ~memory_words ~network ~traffic =
  match kind with
  | Base ->
    Scheme.Packed
      ((module Hscd_coherence.Base), Hscd_coherence.Base.create cfg ~memory_words ~network ~traffic)
  | SC ->
    Scheme.Packed
      ((module Hscd_coherence.Sc), Hscd_coherence.Sc.create cfg ~memory_words ~network ~traffic)
  | TPI ->
    Scheme.Packed
      ((module Hscd_coherence.Tpi), Hscd_coherence.Tpi.create cfg ~memory_words ~network ~traffic)
  | HW ->
    Scheme.Packed
      ((module Hscd_coherence.Hwdir), Hscd_coherence.Hwdir.create cfg ~memory_words ~network ~traffic)
  | LimitLESS ->
    Scheme.Packed
      ( (module Hscd_coherence.Limitless),
        Hscd_coherence.Limitless.create cfg ~memory_words ~network ~traffic )
  | VC ->
    Scheme.Packed
      ((module Hscd_coherence.Vc), Hscd_coherence.Vc.create cfg ~memory_words ~network ~traffic)
  | INV ->
    Scheme.Packed
      ((module Hscd_coherence.Inv), Hscd_coherence.Inv.create cfg ~memory_words ~network ~traffic)

type compiled = {
  marked : Ast.program;
  census : Marking.census;
  packed_trace : Trace.packed;  (** engine-native form, compiled once *)
}

(* ------------------------------------------------------------------ *)
(* Compile cache: parameter sweeps hit [compile] once per point, but    *)
(* most points share the reference stream — only the trace-relevant     *)
(* knobs (line size, scheduling staticness, marking flags) change it.   *)
(* The in-memory table shares [compiled] across a process; the optional *)
(* on-disk store (binary traces) shares them across processes.          *)
(* ------------------------------------------------------------------ *)

type cache_stats = { trace_generations : int; memory_hits : int; disk_hits : int }

let cache_table : (string, compiled) Hashtbl.t = Hashtbl.create 16

(* Guards the table and the counters: [compile] may be called from pool
   worker domains. Trace generation and disk I/O stay outside the lock —
   concurrent same-key compiles may both generate, but never corrupt. *)
let cache_mu = Mutex.create ()
let n_generations = ref 0
let n_memory_hits = ref 0
let n_disk_hits = ref 0
let cache_dir = ref (Sys.getenv_opt "HSCD_COMPILE_CACHE")

let set_compile_cache_dir d = cache_dir := d

let compile_cache_stats () =
  Mutex.protect cache_mu (fun () ->
      { trace_generations = !n_generations; memory_hits = !n_memory_hits; disk_hits = !n_disk_hits })

let reset_compile_cache () =
  Mutex.protect cache_mu (fun () ->
      Hashtbl.reset cache_table;
      n_generations := 0;
      n_memory_hits := 0;
      n_disk_hits := 0)

(* Key: digest of the printed (sema-checked, pre-marking) program plus the
   knobs that reach the reference stream. Timing-side parameters
   (processors, timetag bits, cache geometry beyond the line size) are
   deliberately absent, so every point of a sweep shares one entry. *)
let cache_key ~cfg ~intertask ~check_races program =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Hscd_lang.Printer.program_to_string program;
            string_of_int cfg.Config.line_words;
            string_of_bool (Schedule.is_static cfg);
            string_of_bool intertask;
            string_of_bool check_races;
          ]))

let disk_path dir key = Filename.concat dir (key ^ ".hscdtrc")

let disk_read key =
  match !cache_dir with
  | None -> None
  | Some dir ->
    let path = disk_path dir key in
    (* a corrupt, truncated or unreadable entry is silently regenerated *)
    if Sys.file_exists path then (try Some (Trace_io.read_packed path) with Err.Error _ -> None)
    else None

(* best-effort: a full disk or read-only dir must never fail a compile.
   The tmp name is writer-unique (temp_file) so concurrent writers of the
   same key never interleave into one file; the atomic rename means the
   last complete write wins and readers only ever see whole entries. *)
let disk_write key packed =
  match !cache_dir with
  | None -> ()
  | Some dir -> (
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = disk_path dir key in
      let tmp = Filename.temp_file ~temp_dir:dir (key ^ ".") ".tmp" in
      Trace_io.write_packed tmp packed;
      Sys.rename tmp path
    with _ -> ())

(** Front half: check, mark, trace (streamed straight into the packed
    form). The marking is told whether the engine's scheduling policy is
    static, so owner-alignment stays sound. [cache] (default on) consults
    the compile cache keyed on the program text and trace-relevant knobs. *)
let compile ?(cfg = Config.default) ?(intertask = true) ?(check_races = true) ?(cache = true)
    (program : Ast.program) =
  let program = Sema.check_exn program in
  let key = if cache then Some (cache_key ~cfg ~intertask ~check_races program) else None in
  let hit =
    match key with
    | None -> None
    | Some k ->
      Mutex.protect cache_mu (fun () ->
          let c = Hashtbl.find_opt cache_table k in
          if Option.is_some c then incr n_memory_hits;
          c)
  in
  match hit with
  | Some c -> c
  | None ->
    let m = Marking.mark_program ~static_sched:(Schedule.is_static cfg) ~intertask program in
    let packed_trace =
      match (match key with Some k -> disk_read k | None -> None) with
      | Some p ->
        Mutex.protect cache_mu (fun () -> incr n_disk_hits);
        p
      | None ->
        Mutex.protect cache_mu (fun () -> incr n_generations);
        let p =
          Trace.of_program_packed ~check_races ~line_words:cfg.line_words m.Marking.program
        in
        (match key with Some k -> disk_write k p | None -> ());
        p
    in
    let c = { marked = m.Marking.program; census = m.Marking.census; packed_trace } in
    (match key with Some k -> Mutex.protect cache_mu (fun () -> Hashtbl.replace cache_table k c) | None -> ());
    c

(** Back half: one scheme over a packed trace (the engine-native form —
    packed traces are immutable, so one can be shared across domains). *)
let simulate_packed ?(cfg = Config.default) kind (trace : Trace.packed) =
  let cfg = Config.validate cfg in
  let network = Kruskal_snir.create cfg in
  let traffic = Traffic.create cfg in
  let packed = pack kind cfg ~memory_words:(Trace.packed_memory_words trace) ~network ~traffic in
  Engine.run cfg packed ~net:network ~traffic trace

(** One scheme over a boxed trace via the reference replay loop —
    bit-identical to {!simulate_packed} on [Trace.pack trace]. Only tests
    call it. *)
let simulate_boxed ?(cfg = Config.default) kind (trace : Trace.t) =
  let cfg = Config.validate cfg in
  let network = Kruskal_snir.create cfg in
  let traffic = Traffic.create cfg in
  let packed = pack kind cfg ~memory_words:(Trace.memory_words trace) ~network ~traffic in
  Engine.run_boxed cfg packed ~net:network ~traffic trace

(** One scheme over a boxed trace: packs, then replays natively. *)
let simulate ?(cfg = Config.default) kind (trace : Trace.t) =
  simulate_packed ~cfg kind (Trace.pack trace)

(** {!compile} as a [result]: sema/parse failures come back typed (kind
    [Parse]) instead of as exceptions. *)
let compile_result ?cfg ?intertask ?check_races ?cache program =
  Err.guard ~default:Err.Parse ~context:"compile" (fun () ->
      compile ?cfg ?intertask ?check_races ?cache program)

(* ------------------------------------------------------------------ *)
(* Job-granular entry points: the units the service daemon schedules.  *)
(* A "cell" (one scheme over one compiled trace) is the atom of         *)
(* checkpointing, retry and progress reporting — every coarser job      *)
(* (compare, sweep) is a list of cells plus a compile.                  *)
(* ------------------------------------------------------------------ *)

let scheme_of_name s =
  match String.uppercase_ascii s with
  | "BASE" -> Ok Base
  | "SC" -> Ok SC
  | "TPI" -> Ok TPI
  | "HW" -> Ok HW
  | "LIMITLESS" -> Ok LimitLESS
  | "VC" -> Ok VC
  | "INV" -> Ok INV
  | _ -> Err.error Err.Usage "unknown scheme %s (known: BASE, SC, INV, VC, TPI, HW, LimitLESS)" s

let config_digest (cfg : Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string (cfg : Config.t) []))

let compiled_digest (c : compiled) =
  Digest.to_hex (Digest.string (Hscd_lang.Printer.program_to_string c.marked))

(* ------------------------------------------------------------------ *)
(* The cell runner: every compare and experiment sweep is a list of     *)
(* cells run on the supervised pool. With a checkpoint, one journal     *)
(* record per cell is appended the moment its simulation finishes — a   *)
(* crash or kill loses at most the in-flight cells, and a rerun with    *)
(* the same journal reuses completed cells bit-identically (the payload *)
(* is the marshalled [Engine.result]).                                  *)
(* ------------------------------------------------------------------ *)

let encode_result (r : Engine.result) = Marshal.to_string r []

let decode_result payload =
  match (Marshal.from_string payload 0 : Engine.result) with
  | r -> Some r
  | exception _ -> None

let run_cells ?jobs ?(policy = Pool.default_policy) ?checkpoint ?(on_done = fun ~finished:_ _ -> ())
    ~key ~label f cells =
  let with_journal k =
    match checkpoint with
    | None -> k None []
    | Some path -> (
      match Journal.open_append path with
      | Error e -> Error (Err.add_context "checkpoint" e)
      | Ok (j, records) -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> k (Some j) records))
  in
  with_journal @@ fun journal records ->
  let prior = Hashtbl.create 64 in
  List.iter (fun { Journal.key; payload; _ } -> Hashtbl.replace prior key payload) records;
  let cells = Array.of_list cells in
  let results = Array.map (fun c -> Option.bind (Hashtbl.find_opt prior (key c)) decode_result) cells in
  let todo = List.filter (fun i -> results.(i) = None) (List.init (Array.length cells) Fun.id) in
  let todo_arr = Array.of_list todo in
  let finished = ref (Array.length cells - Array.length todo_arr) in
  let outcomes, _stats =
    Pool.supervise ?jobs ~policy
      ~on_done:(fun t oc ->
        match oc with
        | Pool.Done r ->
          let cell = cells.(todo_arr.(t)) in
          Option.iter (fun j -> ignore (Journal.append j ~key:(key cell) (encode_result r))) journal;
          incr finished;
          on_done ~finished:!finished cell
        | _ -> ())
      (fun i -> f cells.(i))
      todo
  in
  (* the first failure in input order decides the error *)
  let rec collect = function
    | [] -> Ok (Array.to_list (Array.map Option.get results))
    | (i, Pool.Done r) :: rest ->
      results.(i) <- Some r;
      collect rest
    | (i, Pool.Failed e) :: _ -> Error (Err.add_context (label cells.(i)) e)
    | (i, Pool.Timed_out s) :: _ ->
      Err.error ~context:[ label cells.(i) ] Err.Timeout "simulation gave up after %.1fs" s
  in
  collect (List.combine todo outcomes)

type comparison = { kind : scheme_kind; result : Engine.result }

let compare_result ?(cfg = Config.default) ?(schemes = all_schemes) ?(intertask = true) ?cache
    ?jobs ?policy ?checkpoint program =
  Result.bind (compile_result ~cfg ~intertask ?cache program) @@ fun c ->
  let prog_id = compiled_digest c in
  run_cells ?jobs ?policy ?checkpoint
    ~key:(fun kind ->
      Printf.sprintf "compare|%s|%s|%s" prog_id (config_digest cfg) (scheme_name kind))
    ~label:scheme_name
    (fun kind -> simulate_packed ~cfg kind c.packed_trace)
    schemes
  |> Result.map (fun rs -> (c, List.map2 (fun kind result -> { kind; result }) schemes rs))

let compare ?cfg ?schemes ?intertask ?cache ?jobs program =
  Err.get_exn (compare_result ?cfg ?schemes ?intertask ?cache ?jobs program)

(** Convenience wrapper running one scheme from source. *)
let run_source ?(cfg = Config.default) ?(intertask = true) kind program =
  let c = compile ~cfg ~intertask program in
  (c, simulate_packed ~cfg kind c.packed_trace)
