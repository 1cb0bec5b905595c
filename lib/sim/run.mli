(** Top-level pipeline: source program → sema → compiler marking → trace →
    per-scheme simulation. The API the experiments, examples and CLI use. *)

type scheme_kind = Base | SC | TPI | HW | LimitLESS | VC | INV

val scheme_name : scheme_kind -> string

(** The four schemes of the paper's evaluation. *)
val all_schemes : scheme_kind list

(** Plus the related-work schemes built as extensions. *)
val extended_schemes : scheme_kind list

(** Instantiate a scheme (used by the engine; exposed for tests). *)
val pack :
  scheme_kind ->
  Hscd_arch.Config.t ->
  memory_words:int ->
  network:Hscd_network.Kruskal_snir.t ->
  traffic:Hscd_network.Traffic.t ->
  Hscd_coherence.Scheme.packed

type compiled = {
  marked : Hscd_lang.Ast.program;
  census : Hscd_compiler.Marking.census;
  packed_trace : Trace.packed;  (** engine-native form, compiled once *)
}

(** Compile-cache counters: traces actually generated by the interpreter
    vs. served from the in-memory table, entries evicted to stay within
    {!compile_cache_budget_bytes}, and the bytes the table holds now. *)
type cache_stats = {
  trace_generations : int;
  memory_hits : int;
  evictions : int;
  held_bytes : int;
}

(** 16 MiB: what the in-memory table may hold, weighing an entry at 8
    bytes per word of its slot slab and of its golden image. An insert
    evicts the least recently used entries (a hit counts as a use) until
    the table fits, but never the entry it inserts, so an entry larger
    than the budget is still cached, alone. *)
val compile_cache_budget_bytes : int

val compile_cache_stats : unit -> cache_stats

(** Clear the in-memory table and zero the counters. *)
val reset_compile_cache : unit -> unit

(** Kept only for the benchmark ledger, which calls it with [None]; it
    goes once that call does. [None] does nothing; [Some _] raises a
    [Usage] error, since the on-disk compile cache was removed and
    regenerating a trace from source is faster than reading it back. *)
val set_compile_cache_dir : string option -> unit

(** Front half: check, mark (soundly w.r.t. the config's scheduling
    policy), and stream the trace straight into the packed form. [cache]
    (default on) consults the compile cache — keyed on program text, line
    size, scheduling staticness and marking flags, so parameter sweeps
    regenerate each reference stream once while it stays within
    {!compile_cache_budget_bytes}. *)
val compile :
  ?cfg:Hscd_arch.Config.t ->
  ?intertask:bool ->
  ?cache:bool ->
  Hscd_lang.Ast.program ->
  compiled

(** Back half: one scheme over a packed (engine-native) trace. *)
val simulate_packed :
  ?cfg:Hscd_arch.Config.t -> scheme_kind -> Trace.packed -> Engine.result

(** {!compile} as a [result]: sema/parse failures come back as a typed
    {!Hscd_util.Hscd_error.t} (kind [Parse]) instead of an exception. *)
val compile_result :
  ?cfg:Hscd_arch.Config.t ->
  ?intertask:bool ->
  ?cache:bool ->
  Hscd_lang.Ast.program ->
  (compiled, Hscd_util.Hscd_error.t) result

(** {1 Job-granular entry points}

    The units the sweep service schedules: a cell (one scheme over one
    compiled trace) is the atom of checkpointing, retry and progress —
    compare and sweep jobs are lists of cells plus a cached compile. *)

(** Parse a scheme name (case-insensitive); [Usage] error listing the
    valid names otherwise. *)
val scheme_of_name : string -> (scheme_kind, Hscd_util.Hscd_error.t) result

(** Stable digest of a machine configuration (cell/journal keys). *)
val config_digest : Hscd_arch.Config.t -> string

(** Stable digest of a compiled program (the marked source text). *)
val compiled_digest : compiled -> string

(** {1 Supervised cells}

    Every compare and experiment sweep, and every compare and sweep job
    of the daemon ([hscd serve]), runs through {!run_cells} on the
    supervised pool ({!Hscd_util.Pool.supervise}); there is no other
    executor. *)

(** [run_cells ~jobs ~policy ~checkpoint ~key ~label f cells] runs [f]
    on every cell as one supervised-pool task (a failed attempt is
    retried with backoff, whatever its error kind, per [policy], default
    {!Hscd_util.Pool.default_policy}) and returns the results in input
    order. With [checkpoint], cells already in that journal under
    [key cell] are reused without simulating, and every cell that
    completes is appended the moment it finishes — so a rerun after a
    crash, kill or torn tail resumes bit-identically. On [Error] (the
    first failing cell in input order, with [label cell] as context),
    every cell completed so far is already durable in the journal. A
    record's payload is the cell's marshalled {!Engine.result}; a
    record that does not decode is simulated again.

    [on_done ~finished cell] runs in the calling domain each time a
    freshly simulated cell completes, after its journal record is
    appended. [finished] counts every completed cell, those reused from
    the journal included, so it ends at the number of cells. The daemon
    streams its [Progress] frames and serves its sockets from it. *)
val run_cells :
  ?jobs:int ->
  ?policy:Hscd_util.Pool.policy ->
  ?checkpoint:string ->
  ?on_done:(finished:int -> 'a -> unit) ->
  key:('a -> string) ->
  label:('a -> string) ->
  ('a -> Engine.result) ->
  'a list ->
  (Engine.result list, Hscd_util.Hscd_error.t) result

type comparison = { kind : scheme_kind; result : Engine.result }

(** Compile once, then run each scheme on the same trace (the paper's
    methodology: identical reference streams) as one cell each of
    {!run_cells}, keyed by program digest × config digest × scheme.
    [jobs] (default 1) is the number of domains simulating schemes
    concurrently; any value produces bit-identical results. *)
val compare_result :
  ?cfg:Hscd_arch.Config.t ->
  ?schemes:scheme_kind list ->
  ?intertask:bool ->
  ?cache:bool ->
  ?jobs:int ->
  ?policy:Hscd_util.Pool.policy ->
  ?checkpoint:string ->
  Hscd_lang.Ast.program ->
  (compiled * comparison list, Hscd_util.Hscd_error.t) result

(** {!compare_result} with the default policy and no journal; a failure
    raises {!Hscd_util.Hscd_error.Error}. *)
val compare :
  ?cfg:Hscd_arch.Config.t ->
  ?schemes:scheme_kind list ->
  ?intertask:bool ->
  ?cache:bool ->
  ?jobs:int ->
  Hscd_lang.Ast.program ->
  compiled * comparison list

(** One scheme from source. *)
val run_source :
  ?cfg:Hscd_arch.Config.t ->
  ?intertask:bool ->
  scheme_kind ->
  Hscd_lang.Ast.program ->
  compiled * Engine.result
