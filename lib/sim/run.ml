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
(* The in-memory table shares [compiled] across a process. It holds at  *)
(* most [compile_cache_budget_bytes] of slot slab and golden image and   *)
(* evicts the least recently used entry first.                          *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  trace_generations : int;
  memory_hits : int;
  evictions : int;
  held_bytes : int;
}

(* 16 MiB holds two variant sets of the six full-scale Perfect models
   (6.75 MiB each, 13.5 MiB) but not three (20.25 MiB). [experiment all]
   compiles four variants (default, 16-word lines, no intertask marking,
   dynamic scheduling) but only comes back to the default one, so it
   keeps that set plus the one it is on, and generates each trace once. *)
let compile_cache_budget_bytes = 16 * 1024 * 1024

type entry = { compiled : compiled; bytes : int; mutable last_use : int }

let cache_table : (string, entry) Hashtbl.t = Hashtbl.create 16

(* Guards the table and the counters: [compile] may be called from pool
   worker domains. Trace generation stays outside the lock — concurrent
   same-key compiles may both generate, but never corrupt. *)
let cache_mu = Mutex.create ()
let n_generations = ref 0
let n_memory_hits = ref 0
let n_evictions = ref 0
let n_held_bytes = ref 0
let use_clock = ref 0

let tick () =
  incr use_clock;
  !use_clock

(* what an entry keeps alive: 8 bytes per slab word and per golden word *)
let entry_bytes c =
  8 * (Trace.Slab.length c.packed_trace.Trace.slots + Array.length c.packed_trace.Trace.p_golden)

(* Under [cache_mu]. A racing same-key insert replaces the entry, so its
   old weight leaves the sum first. Eviction never takes [key] itself: an
   entry over the budget is still cached, alone. *)
let insert key c =
  Option.iter (fun old -> n_held_bytes := !n_held_bytes - old.bytes) (Hashtbl.find_opt cache_table key);
  let e = { compiled = c; bytes = entry_bytes c; last_use = tick () } in
  Hashtbl.replace cache_table key e;
  n_held_bytes := !n_held_bytes + e.bytes;
  let oldest () =
    Hashtbl.fold
      (fun k e acc ->
        if k = key then acc
        else match acc with Some (_, o) when o.last_use <= e.last_use -> acc | _ -> Some (k, e))
      cache_table None
  in
  let rec evict () =
    if !n_held_bytes > compile_cache_budget_bytes then
      match oldest () with
      | None -> ()
      | Some (k, e) ->
        Hashtbl.remove cache_table k;
        n_held_bytes := !n_held_bytes - e.bytes;
        incr n_evictions;
        evict ()
  in
  evict ()

let set_compile_cache_dir = function
  | None -> ()
  | Some _ -> Err.fail Err.Usage "the on-disk compile cache was removed"

let compile_cache_stats () =
  Mutex.protect cache_mu (fun () ->
      {
        trace_generations = !n_generations;
        memory_hits = !n_memory_hits;
        evictions = !n_evictions;
        held_bytes = !n_held_bytes;
      })

let reset_compile_cache () =
  Mutex.protect cache_mu (fun () ->
      Hashtbl.reset cache_table;
      n_generations := 0;
      n_memory_hits := 0;
      n_evictions := 0;
      n_held_bytes := 0;
      use_clock := 0)

(* Key: digest of the printed (sema-checked, pre-marking) program plus the
   knobs that reach the reference stream. Timing-side parameters
   (processors, timetag bits, cache geometry beyond the line size) are
   deliberately absent, so every point of a sweep shares one entry. *)
let cache_key ~cfg ~intertask program =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Hscd_lang.Printer.program_to_string program;
            string_of_int cfg.Config.line_words;
            string_of_bool (Schedule.is_static cfg);
            string_of_bool intertask;
          ]))

(** Front half: check, mark, trace (streamed straight into the packed
    form). The marking is told whether the engine's scheduling policy is
    static, so owner-alignment stays sound. [cache] (default on) consults
    the compile cache keyed on the program text and trace-relevant knobs. *)
let compile ?(cfg = Config.default) ?(intertask = true) ?(cache = true) (program : Ast.program) =
  let program = Sema.check_exn program in
  let key = if cache then Some (cache_key ~cfg ~intertask program) else None in
  let hit =
    match key with
    | None -> None
    | Some k ->
      Mutex.protect cache_mu (fun () ->
          Hashtbl.find_opt cache_table k
          |> Option.map (fun e ->
                 incr n_memory_hits;
                 e.last_use <- tick ();
                 e.compiled))
  in
  match hit with
  | Some c -> c
  | None ->
    let m = Marking.mark_program ~static_sched:(Schedule.is_static cfg) ~intertask program in
    Mutex.protect cache_mu (fun () -> incr n_generations);
    let packed_trace =
      Trace.of_program_packed ~line_words:cfg.line_words m.Marking.program
    in
    let c = { marked = m.Marking.program; census = m.Marking.census; packed_trace } in
    Option.iter (fun k -> Mutex.protect cache_mu (fun () -> insert k c)) key;
    c

(** Back half: one scheme over a packed trace (the engine-native form —
    packed traces are immutable, so one can be shared across domains). *)
let simulate_packed ?(cfg = Config.default) kind (trace : Trace.packed) =
  let cfg = Config.validate cfg in
  let network = Kruskal_snir.create cfg in
  let traffic = Traffic.create cfg in
  let packed = pack kind cfg ~memory_words:(Trace.packed_memory_words trace) ~network ~traffic in
  Engine.run cfg packed ~net:network ~traffic trace

(** {!compile} as a [result]: sema/parse failures come back typed (kind
    [Parse]) instead of as exceptions. *)
let compile_result ?cfg ?intertask ?cache program =
  Err.guard ~default:Err.Parse ~context:"compile" (fun () -> compile ?cfg ?intertask ?cache program)

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
