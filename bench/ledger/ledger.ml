(* The hscd benchmark. See README.md in this directory.

     ledger.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                    [--json FILE] [--spans FILE] [--bless]
     ledger.exe diff A.json ... -- B.json ... [--benchmark FILE]
     ledger.exe smoke --benchmark FILE

   Run from the repository root: expected.json is read from
   bench/ledger/, and the daemon's temporary state lives in .ledger-tmp/. *)

let workloads =
  [
    ("paper-tables", Paper_tables.run);
    ("fresh-programs", Fresh_programs.run);
    ("p1024-sweep", P1024_sweep.run);
    ("daemon-tenants", Daemon_tenants.run);
  ]

(* their digests do not depend on the seed *)
let seed_independent = [ "paper-tables"; "p1024-sweep" ]
let expected_path = "bench/ledger/expected.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

(* ---- argument parsing ---- *)

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable spans : string option;
  mutable smoke : bool;
  mutable bless : bool;
  mutable benchmark : string;
}

let parse_args argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 15.0;
      trace = false;
      json = None;
      spans = None;
      smoke = false;
      bless = false;
      benchmark = "BENCHMARK.json";
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then die "unknown workload %s" w;
      a.workload <- Some w;
      go rest
    | "--seed" :: n :: rest ->
      a.seed <- (match int_of_string_opt n with Some n -> n | None -> die "bad --seed %s" n);
      go rest
    | "--seconds" :: n :: rest ->
      a.seconds <- (match float_of_string_opt n with Some n when n >= 0.0 -> n | _ -> die "bad --seconds %s" n);
      go rest
    | "--trace" :: t :: rest ->
      a.trace <- (match t with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1");
      go rest
    | "--json" :: f :: rest ->
      a.json <- Some f;
      go rest
    | "--spans" :: f :: rest ->
      a.spans <- Some f;
      go rest
    | "--smoke" :: rest ->
      a.smoke <- true;
      go rest
    | "--bless" :: rest ->
      a.bless <- true;
      go rest
    | "--benchmark" :: f :: rest ->
      a.benchmark <- f;
      go rest
    | x :: _ -> die "unexpected argument %s" x
  in
  go argv;
  if a.smoke && a.bless then die "--bless takes the full-size inputs, not --smoke";
  a

(* ---- run ---- *)

let expected_digest (a : args) name =
  if a.smoke || a.bless then None
  else
    match Json.read_file expected_path with
    | exception Sys_error _ -> die "%s is missing (run from the repository root, or --bless)" expected_path
    | j ->
      let seed = int_of_float (Json.to_num (Json.member "seed" j)) in
      if List.mem name seed_independent || seed = a.seed then
        Option.map Json.to_str (Json.member_opt name (Json.member "digests" j))
      else None

let print_layers () =
  let layers = Span.self_time_by_layer () in
  let total = List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 layers in
  prerr_endline "layer self time (traced run):";
  List.iter
    (fun (l, t, n) -> Printf.eprintf "  %-12s %10.1f ms %6.1f%% %8d spans\n" l (t *. 1000.0) (t /. total *. 100.0) n)
    layers

let result_file ~(a : args) outcomes =
  Json.Obj
    [
      ("provenance", Measure.provenance ~seed:a.seed);
      ( "workloads",
        Json.Arr (List.map (Report.outcome_json ~traced:a.trace ~seconds:a.seconds) outcomes) );
    ]

let run_one (a : args) name =
  Hscd_sim.Run.set_compile_cache_dir None;
  if a.trace then Span.enable ();
  let expected = expected_digest a name in
  let settings = { Report.seed = a.seed; seconds = a.seconds; traced = a.trace; smoke = a.smoke } in
  let o = (List.assoc name workloads) settings ~expected in
  if a.trace then print_layers ();
  Option.iter Span.write_chrome a.spans;
  Report.print_metrics name o.metrics;
  Report.print_metrics name o.extra;
  Option.iter (fun f -> Json.write_file f (result_file ~a [ o ])) a.json;
  print_endline
    (Json.to_string (Report.summary_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics));
  exit (if o.correct then 0 else 1)

let read_outcomes path = Json.to_list (Json.member "workloads" (Json.read_file path))

(* Every workload in a process of its own; their result files merged. *)
let run_all (a : args) =
  let root = Daemon_tenants.tmp_root in
  let tmp = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  Sys.mkdir tmp 0o755;
  let outcomes =
    List.map
      (fun (name, _) ->
        let json = Filename.concat tmp (name ^ ".json") in
        let args =
          [ "run"; "--workload"; name; "--seed"; string_of_int a.seed; "--seconds"; Printf.sprintf "%g" a.seconds;
            "--trace"; (if a.trace then "1" else "0"); "--json"; json ]
          @ (match a.spans with Some f -> [ "--spans"; Filename.remove_extension f ^ "-" ^ name ^ ".json" ] | None -> [])
          @ (if a.bless then [ "--bless" ] else [])
          @ if a.smoke then [ "--smoke" ] else []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin Unix.stdout
            Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        let o = try read_outcomes json with Sys_error _ | Json.Parse_error _ -> [] in
        (try Sys.remove json with Sys_error _ -> ());
        (name, status, o))
      workloads
  in
  (try Sys.rmdir tmp; Sys.rmdir root with Sys_error _ -> ());
  let all = List.concat_map (fun (_, _, o) -> o) outcomes in
  let ok = List.for_all (fun (_, status, o) -> status = Unix.WEXITED 0 && o <> []) outcomes in
  let num k o = int_of_float (Json.to_num (Json.member k o)) in
  Option.iter
    (fun f ->
      Json.write_file f (Json.Obj [ ("provenance", Measure.provenance ~seed:a.seed); ("workloads", Json.Arr all) ]))
    a.json;
  if a.bless then begin
    if not ok then die "not blessing: a workload failed";
    let digests = List.map (fun o -> (Json.to_str (Json.member "name" o), Json.member "digest" o)) all in
    Json.write_file expected_path (Json.Obj [ ("seed", Json.Num (float_of_int a.seed)); ("digests", Json.Obj digests) ]);
    Printf.printf "blessed %s for seed %d\n" expected_path a.seed
  end;
  let metrics =
    List.concat_map
      (fun o ->
        let w = Json.to_str (Json.member "name" o) in
        List.map
          (fun (k, v) ->
            Report.m (w ^ "/" ^ k) (Json.to_num (Json.member "value" v)) (Json.to_str (Json.member "unit" v)))
          (Json.to_obj (Json.member "metrics" o)))
      all
  in
  print_endline
    (Json.to_string
       (Report.summary_json ~correct:(ok && List.for_all (fun o -> Json.to_bool (Json.member "correct" o)) all)
          ~attempted:(List.fold_left (fun n o -> n + num "attempted" o) 0 all)
          ~failed:(List.fold_left (fun n o -> n + num "failed" o) 0 all)
          metrics));
  exit (if ok then 0 else 1)

(* ---- main ---- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> (
    let a = parse_args rest in
    match a.workload with Some w -> run_one a w | None -> run_all a)
  | _ :: "diff" :: rest -> exit (Diff.main rest)
  | _ :: "smoke" :: rest -> exit (Smoke.main ~workloads:(List.map fst workloads) (parse_args rest).benchmark)
  | _ ->
    prerr_endline "usage: ledger.exe (run | diff | smoke) ... — see bench/ledger/README.md";
    exit 2
