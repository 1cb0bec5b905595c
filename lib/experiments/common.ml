(** Shared infrastructure for the experiment harness: runs every benchmark
    under every scheme for a given machine configuration, memoizing results
    so experiments that share a configuration do not re-simulate. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Metrics = Hscd_sim.Metrics
module Trace = Hscd_sim.Trace
module Perfect = Hscd_workloads.Perfect
module Err = Hscd_util.Hscd_error
module Pool = Hscd_util.Pool

type bench_result = {
  bench : string;
  census : Hscd_compiler.Marking.census;
  trace_epochs : int;
  trace_events : int;
  by_scheme : (Run.scheme_kind * Hscd_sim.Engine.result) list;
}

let cache : (string, bench_result list) Hashtbl.t = Hashtbl.create 16

(* The sweep identity: the whole machine configuration (by digest, so no
   field can be forgotten), the marking flag and the benchmark scale. *)
let sweep_id cfg ~intertask ~small =
  Printf.sprintf "%s|%b|%b" (Run.config_digest cfg) intertask small

(* ------------------------------------------------------------------ *)
(* The simulation grid: each (bench, scheme) cell is one task of        *)
(* {!Run.run_cells} on the supervised pool; with a checkpoint, completed *)
(* cells are journaled as they finish, so an interrupted sweep rerun    *)
(* with the same journal re-simulates only the missing cells and        *)
(* reproduces the full result bit-identically.                          *)
(* ------------------------------------------------------------------ *)

(** [run_all] as a [result]. [policy] governs per-cell retry/timeout
    (default: {!Hscd_util.Pool.default_policy}); [checkpoint] enables
    journaling + resume; [inject] is the chaos harness's hook, called at
    the start of every cell attempt (so injected crashes and hangs
    exercise the retry path). Results are not memoized — the journal is
    the cache. On [Error], the journal still holds every completed cell. *)
let run_all_result ?(cfg = Config.default) ?(schemes = Run.all_schemes) ?(intertask = true)
    ?(small = false) ?jobs ?policy ?checkpoint
    ?(inject : (bench:string -> kind:Run.scheme_kind -> unit) option) () =
  let rec compile_all acc = function
    | [] -> Ok (List.rev acc)
    | (e : Perfect.entry) :: rest -> (
      match Run.compile_result ~cfg ~intertask (if small then e.build_small () else e.build ()) with
      | Ok c -> compile_all ((e.name, c) :: acc) rest
      | Error err -> Error (Err.add_context ("compile " ^ e.name) err))
  in
  Result.bind (compile_all [] Perfect.all) @@ fun compiled ->
  let sweep = sweep_id cfg ~intertask ~small in
  let grid =
    List.concat_map (fun (name, c) -> List.map (fun kind -> (name, c, kind)) schemes) compiled
  in
  Run.run_cells ?jobs ?policy ?checkpoint
    ~key:(fun (name, c, kind) ->
      Printf.sprintf "sweep|%s|%s|%s|%s" sweep name (Run.compiled_digest c) (Run.scheme_name kind))
    ~label:(fun (name, _, kind) -> Printf.sprintf "cell %s/%s" name (Run.scheme_name kind))
    (fun (name, (c : Run.compiled), kind) ->
      (match inject with Some f -> f ~bench:name ~kind | None -> ());
      Run.simulate_packed ~cfg kind c.packed_trace)
    grid
  |> Result.map (fun results ->
         let results = Array.of_list results and width = List.length schemes in
         List.mapi
           (fun b (name, (c : Run.compiled)) ->
             {
               bench = name;
               census = c.census;
               trace_epochs = Trace.packed_n_epochs c.packed_trace;
               trace_events = c.packed_trace.Trace.p_total_events;
               by_scheme = List.mapi (fun s kind -> (kind, results.((b * width) + s))) schemes;
             })
           compiled)

(** Ambient supervision setting for every {!run_all}: the retry policy
    and, for the CLI's [--resume], the checkpoint journal — so all
    experiments are crash-tolerant and resumable without threading
    parameters through each table builder. *)
let supervision : (Pool.policy * string option) ref = ref (Pool.default_policy, None)

let set_supervision ?(policy = Pool.default_policy) ?checkpoint () =
  supervision := (policy, checkpoint)

(** Run all six Perfect Club models under [schemes] with [cfg]. [small]
    selects the test-scale versions. [jobs] (default 1) fans the
    bench × scheme simulation grid out over that many domains; every
    simulation owns its machine state, so results are bit-identical to the
    sequential run (the memo cache key therefore ignores [jobs]).

    Compilation goes through {!Run.compile}'s cache, so a sweep varying
    only timing-side knobs generates each model's trace exactly once.
    Results are memoized per sweep and scheme list, and a scheme already
    simulated in the same sweep under another scheme list is taken from
    that entry, not simulated again.

    The grid runs through {!run_all_result} under the {!set_supervision}
    policy and journal; a terminal failure raises
    {!Hscd_util.Hscd_error.Error}. *)
let run_all ?(cfg = Config.default) ?(schemes = Run.all_schemes) ?(intertask = true)
    ?(small = false) ?jobs () =
  (* scheme names are joined with a separator — bare concatenation would
     let distinct scheme lists collide on one memo key *)
  let sweep = sweep_id cfg ~intertask ~small in
  let key = sweep ^ "|" ^ String.concat "+" (List.map Run.scheme_name schemes) in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    (* a scheme an earlier call simulated in the same sweep, under another
       scheme list, has the same cells: take them instead of simulating *)
    let same_sweep =
      Hashtbl.fold
        (fun k rs acc -> if String.starts_with ~prefix:(sweep ^ "|") k then rs :: acc else acc)
        cache []
    in
    let earlier kind =
      List.find_opt (List.for_all (fun r -> List.mem_assoc kind r.by_scheme)) same_sweep
    in
    let missing = List.filter (fun kind -> Option.is_none (earlier kind)) schemes in
    let fresh =
      match (missing, schemes) with
      | [], kind :: _ -> Option.get (earlier kind)
      | _ ->
        let policy, checkpoint = !supervision in
        Err.get_exn (run_all_result ~cfg ~schemes:missing ~intertask ~small ?jobs ~policy ?checkpoint ())
    in
    let cell bench kind =
      match List.assoc_opt kind bench.by_scheme with
      | Some r -> r
      | None ->
        let rs = Option.get (earlier kind) in
        List.assoc kind (List.find (fun r -> r.bench = bench.bench) rs).by_scheme
    in
    let results =
      List.map
        (fun bench -> { bench with by_scheme = List.map (fun kind -> (kind, cell bench kind)) schemes })
        fresh
    in
    Hashtbl.replace cache key results;
    results

let result_of r kind = List.assoc kind r.by_scheme

(** Assert-style check used by every experiment: schemes must be coherent. *)
let all_correct results =
  List.for_all
    (fun r ->
      List.for_all
        (fun (_, (e : Hscd_sim.Engine.result)) -> e.memory_ok && e.metrics.violations = 0)
        r.by_scheme)
    results
