(** hscd — command-line driver for the HSCD coherence reproduction.

    Subcommands:
    - [mark <file|bench>]: run the coherence compiler, print the annotated
      listing and marking census;
    - [sim <file|bench>]: simulate one scheme and print its metrics;
    - [compare <file|bench>]: all four schemes side by side;
    - [experiment <id>|all]: regenerate a paper table/figure;
    - [fuzz]: differential fuzzing of the coherence schemes;
    - [check]: bounded exhaustive model checking with counterexample replay;
    - [list]: available benchmarks and experiments. *)

open Cmdliner
module Err = Hscd_util.Hscd_error

(* SIGTERM/SIGINT during a long-running command: exit with the
   conventional 128+signum straight from the handler. Raising an
   exception instead would be unsound under the supervised pool — the
   handler can run on a worker domain, where the pool would classify the
   exception as one task's transient failure and retry it, absorbing the
   signal. Durability needs no cooperation from the interrupted code:
   every completed checkpoint cell was already fsynced by
   [Journal.append], and a record torn by this exit is healed on the next
   open, exactly as for a kill -9. The printed number is the {e system}
   signal number (OCaml's [Sys.sigterm] etc. are internal codes). *)
let install_exit_signals () =
  let handle ocaml_n sys_n =
    try
      Sys.set_signal ocaml_n
        (Sys.Signal_handle
           (fun _ ->
             Printf.eprintf
               "hscd: interrupted by signal %d; completed cells are durable in the \
                checkpoint journal\n\
                %!"
               sys_n;
             Stdlib.exit (128 + sys_n)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  handle Sys.sigterm 15;
  handle Sys.sigint 2

let known_programs () =
  String.concat ", "
    (List.map (fun (e : Hscd_workloads.Perfect.entry) -> e.name) Hscd_workloads.Perfect.all
    @ List.map fst Hscd_workloads.Kernels.all)

let read_program name =
  match Hscd_workloads.Perfect.find name with
  | Some e -> e.build ()
  | None -> (
    match List.assoc_opt name Hscd_workloads.Kernels.all with
    | Some b -> b ()
    | None ->
      if Sys.file_exists name then
        let ic = open_in name in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Hscd_lang.Parser.parse_exn s
      else
        Err.fail Err.Usage "%s: not a benchmark, kernel or file (known: %s)" name
          (known_programs ()))

let program_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"PROGRAM" ~doc:"PFL source file, Perfect Club benchmark or kernel name")

let scheme_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "BASE" -> Ok Hscd_sim.Run.Base
    | "SC" -> Ok Hscd_sim.Run.SC
    | "TPI" -> Ok Hscd_sim.Run.TPI
    | "HW" -> Ok Hscd_sim.Run.HW
    | "LIMITLESS" -> Ok Hscd_sim.Run.LimitLESS
    | "VC" -> Ok Hscd_sim.Run.VC
    | "INV" -> Ok Hscd_sim.Run.INV
    | _ -> Error (`Msg "scheme must be BASE, SC, INV, VC, TPI, HW or LimitLESS")
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Hscd_sim.Run.scheme_name k))

let scheme_arg =
  Arg.(value & opt scheme_conv Hscd_sim.Run.TPI & info [ "s"; "scheme" ] ~doc:"Coherence scheme")

let procs_arg =
  Arg.(value & opt int 16 & info [ "p"; "processors" ] ~doc:"Number of processors")

let line_arg =
  Arg.(value & opt int 4 & info [ "line-words" ] ~doc:"Cache line size in words")

let tag_arg = Arg.(value & opt int 8 & info [ "timetag-bits" ] ~doc:"TPI timetag width")

(* --jobs N: domains for the scheme/experiment fan-out. Default: HSCD_JOBS
   if set, else Domain.recommended_domain_count (). Any value produces
   bit-identical results; it only changes wall-clock time. *)
let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:"Worker domains for parallel simulation (default: $(b,HSCD_JOBS) or the \
                 recommended domain count); results are identical for any value")

let resolve_jobs = function
  | Some n when n > 0 -> n
  | Some _ -> 1
  | None -> Hscd_util.Pool.default_jobs ()

(* --resume FILE: checkpoint journal for supervised sweeps. Completed
   cells are appended as they finish; rerunning with the same file skips
   them bit-identically (after a crash, ^C or timeout). *)
let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume"; "checkpoint" ] ~docv:"FILE"
           ~doc:"Journal completed cells to $(docv) and resume from it: a rerun skips \
                 already-completed work bit-identically, even after a crash or kill")

let retries_arg =
  Arg.(value & opt int Hscd_util.Pool.default_policy.Hscd_util.Pool.retries
       & info [ "retries" ] ~doc:"Retry budget per simulation cell (transient failures)")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "task-timeout" ] ~docv:"SECS"
           ~doc:"Per-cell deadline in seconds; a cell past it is abandoned and retried \
                 on a fresh worker")

let policy_of retries deadline =
  { Hscd_util.Pool.default_policy with Hscd_util.Pool.retries; deadline }

let cfg_of processors line_words timetag_bits =
  { Hscd_arch.Config.default with processors; line_words; timetag_bits }

let print_metrics kind (r : Hscd_sim.Engine.result) =
  let m = r.metrics in
  let module Metrics = Hscd_sim.Metrics in
  Printf.printf "%-9s  cycles %10d  miss %6.2f%%  avg miss lat %7.1f  viol %d  mem %s\n"
    (Hscd_sim.Run.scheme_name kind) r.cycles
    (100.0 *. Metrics.miss_rate m)
    (Metrics.avg_read_miss_latency m)
    m.violations
    (if r.memory_ok then "ok" else "CORRUPT");
  Printf.printf
    "           reads %d writes %d | cold %d repl %d true %d false %d conservative %d reset %d uncached %d\n"
    (Metrics.reads m) (Metrics.writes m)
    (Metrics.class_count m Hscd_coherence.Scheme.Cold)
    (Metrics.class_count m Hscd_coherence.Scheme.Replacement)
    (Metrics.class_count m Hscd_coherence.Scheme.True_sharing)
    (Metrics.class_count m Hscd_coherence.Scheme.False_sharing)
    (Metrics.class_count m Hscd_coherence.Scheme.Conservative)
    (Metrics.class_count m Hscd_coherence.Scheme.Reset_inv)
    (Metrics.class_count m Hscd_coherence.Scheme.Uncached);
  Printf.printf "           traffic r/w/coh/ctl %d/%d/%d/%d words, net load %.3f\n"
    m.traffic.reads m.traffic.writes m.traffic.coherence m.traffic.control r.network_load

let mark_cmd =
  let run name =
    let prog = read_program name in
    let listing, census = Core.mark prog in
    print_endline listing;
    Hscd_compiler.Report.print_census census
  in
  Cmd.v (Cmd.info "mark" ~doc:"Run the coherence compiler and show the marked listing")
    Term.(const run $ program_arg)

let sim_cmd =
  let run name scheme procs line tag =
    let cfg = cfg_of procs line tag in
    let prog = read_program name in
    let _, r = Hscd_sim.Run.run_source ~cfg scheme prog in
    print_metrics scheme r
  in
  Cmd.v (Cmd.info "sim" ~doc:"Simulate one coherence scheme")
    Term.(const run $ program_arg $ scheme_arg $ procs_arg $ line_arg $ tag_arg)

let compare_cmd =
  let run name procs line tag jobs resume retries timeout =
    install_exit_signals ();
    let cfg = cfg_of procs line tag in
    let prog = read_program name in
    let c, results =
      Err.get_exn
        (Hscd_sim.Run.compare_result ~cfg ~schemes:Hscd_sim.Run.extended_schemes
           ~jobs:(resolve_jobs jobs) ~policy:(policy_of retries timeout) ?checkpoint:resume prog)
    in
    Printf.printf "epochs %d, events %d\n"
      (Hscd_sim.Trace.packed_n_epochs c.packed_trace)
      c.packed_trace.Hscd_sim.Trace.p_total_events;
    List.iter (fun (r : Hscd_sim.Run.comparison) -> print_metrics r.kind r.result) results
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all schemes on the same trace")
    Term.(const run $ program_arg $ procs_arg $ line_arg $ tag_arg $ jobs_arg $ resume_arg
          $ retries_arg $ timeout_arg)

let experiment_cmd =
  let run id small jobs resume retries timeout =
    install_exit_signals ();
    let jobs = resolve_jobs jobs in
    (* every run_all is supervised; the flags only tune it. Cell keys
       embed the config, so one journal file serves the whole 'all' sweep *)
    Hscd_experiments.Common.set_supervision ~policy:(policy_of retries timeout)
      ?checkpoint:resume ();
    match id with
    | "all" ->
      List.iter
        (Hscd_experiments.Experiments.run_and_print ~small ~jobs)
        Hscd_experiments.Experiments.all
    | _ -> (
      match Hscd_experiments.Experiments.find id with
      | Some e -> Hscd_experiments.Experiments.run_and_print ~small ~jobs e
      | None ->
        Err.fail Err.Usage "unknown experiment %s (known: all, %s)" id
          (String.concat ", "
             (List.map
                (fun (e : Hscd_experiments.Experiments.t) -> e.id)
                Hscd_experiments.Experiments.all)))
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let small_arg = Arg.(value & flag & info [ "small" ] ~doc:"Use test-scale benchmark sizes") in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a paper table/figure (or 'all')")
    Term.(const run $ id_arg $ small_arg $ jobs_arg $ resume_arg $ retries_arg $ timeout_arg)

let trace_cmd =
  let run name out binary =
    let prog = read_program name in
    let c = Hscd_sim.Run.compile prog in
    if binary then Hscd_sim.Trace_io.write_packed out c.Hscd_sim.Run.packed_trace
    else Hscd_sim.Trace_io.save out c.Hscd_sim.Run.packed_trace;
    Printf.printf "wrote %s (%s): %d epochs, %d events\n" out
      (if binary then "binary" else "text")
      (Hscd_sim.Trace.packed_n_epochs c.packed_trace)
      c.packed_trace.Hscd_sim.Trace.p_total_events
  in
  let out_arg =
    Arg.(value & opt string "trace.txt" & info [ "o"; "output" ] ~doc:"Output file")
  in
  let binary_arg =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Write the binary packed format (direct slab dump, checksummed) instead of text")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Compile a program and dump its event trace to a file")
    Term.(const run $ program_arg $ out_arg $ binary_arg)

let replay_cmd =
  let run path scheme procs line tag binary =
    let cfg = cfg_of procs line tag in
    (* Binary traces are sniffed by magic; --binary forces the attempt.
       They are memory-mapped and their slab checksums validated lazily as
       replay enters each epoch. *)
    let r =
      if binary || Hscd_sim.Trace_io.is_binary path then
        Hscd_sim.Run.simulate_mapped ~cfg scheme (Hscd_sim.Trace_io.map_packed path)
      else Hscd_sim.Run.simulate ~cfg scheme (Hscd_sim.Trace_io.load path)
    in
    print_metrics scheme r
  in
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let binary_arg =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Force reading the binary packed format (auto-detected by magic otherwise)")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Simulate a previously dumped trace file (text or binary)"
       ~man:
         [
           `S Manpage.s_description;
           `P "Replays a trace written by $(b,hscd trace) through the timing engine. \
               Binary packed traces ($(b,--binary) or auto-detected) are memory-mapped \
               and their slab checksums validated lazily, one epoch span at a time, so \
               replaying the first epoch touches O(header + epoch) bytes of the file.";
         ])
    Term.(const run $ path_arg $ scheme_arg $ procs_arg $ line_arg $ tag_arg $ binary_arg)

let fuzz_cmd =
  let module F = Hscd_check.Fuzz in
  let module Oracle = Hscd_check.Oracle in
  let run seed count no_shrink save corpus write_corpus jobs =
    install_exit_signals ();
    let jobs = resolve_jobs jobs in
    match (write_corpus, corpus) with
    | Some dir, _ ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let paths = F.write_corpus ~dir in
      List.iter (fun p -> Printf.printf "wrote %s\n" p) paths
    | None, Some dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        Err.fail Err.Usage "%s: not a directory" dir;
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".trace")
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      if files = [] then Err.fail Err.Usage "no .trace files in %s" dir;
      let bad = ref 0 in
      List.iter
        (fun (path, o) ->
          if Oracle.ok o then Printf.printf "%-40s ok\n" path
          else begin
            incr bad;
            Printf.printf "%-40s FAIL\n%s" path (Oracle.describe o)
          end)
        (F.replay_corpus ~jobs files);
      if !bad > 0 then Err.fail Err.Check "%d corpus trace(s) failed the oracle" !bad
    | None, None ->
      let r = F.fuzz ~shrink:(not no_shrink) ~jobs ~seed ~count () in
      Printf.printf "fuzz: %d iterations, %d events, %d failure(s)\n" r.F.iterations
        r.F.total_events
        (List.length r.F.failures);
      List.iter
        (fun (f : F.failure) ->
          Printf.printf "\nFAILURE at iteration %d\n  params: %s\n%s"
            f.F.index (Hscd_check.Gen.describe f.F.params)
            (Oracle.describe f.F.outcome);
          (match f.F.shrunk with
          | Some t ->
            Printf.printf "  shrunk from %d to %d events\n"
              (Hscd_check.Shrink.event_count f.F.trace)
              (Hscd_check.Shrink.event_count t)
          | None -> ());
          match save with
          | Some dir ->
            (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let trace = Option.value f.F.shrunk ~default:f.F.trace in
            let path =
              Filename.concat dir (Printf.sprintf "repro-seed%d-iter%d.trace" seed f.F.index)
            in
            Hscd_sim.Trace_io.save path (Hscd_sim.Trace.pack trace);
            Printf.printf "  repro written to %s\n" path
          | None -> ())
        r.F.failures;
      if r.F.failures <> [] then
        Err.fail Err.Check "fuzzing found %d failure(s)" (List.length r.F.failures)
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Master PRNG seed") in
  let count_arg = Arg.(value & opt int 100 & info [ "count" ] ~doc:"Number of iterations") in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip delta-debugging of failures")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR" ~doc:"Write failing repro traces to $(docv)")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR" ~doc:"Replay all .trace files in $(docv) instead of fuzzing")
  in
  let write_corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "write-corpus" ] ~docv:"DIR" ~doc:"Regenerate the seed corpus into $(docv) and exit")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random traces through all four schemes with invariant monitors")
    Term.(const run $ seed_arg $ count_arg $ no_shrink_arg $ save_arg $ corpus_arg $ write_corpus_arg
          $ jobs_arg)

let check_cmd =
  let module Mc = Hscd_check.Mc in
  let module Oracle = Hscd_check.Oracle in
  let module Fault = Hscd_check.Fault in
  let fault_conv =
    let parse s =
      let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
      let tail p = String.sub s (String.length p) (String.length s - String.length p) in
      match s with
      | "ignore-time-read" -> Ok Fault.Ignore_time_read
      | "skip-epoch-boundary" -> Ok Fault.Skip_epoch_boundary
      | _ when prefixed "stale-time-read+" -> (
        match int_of_string_opt (tail "stale-time-read+") with
        | Some k when k > 0 -> Ok (Fault.Stale_time_read k)
        | _ -> Error (`Msg "stale-time-read+K needs a positive K"))
      | _ when prefixed "corrupt-read-" -> (
        match int_of_string_opt (tail "corrupt-read-") with
        | Some n when n > 0 -> Ok (Fault.Corrupt_read_value n)
        | _ -> Error (`Msg "corrupt-read-N needs a positive N"))
      | _ ->
        Error
          (`Msg
             "fault must be stale-time-read+K, ignore-time-read, skip-epoch-boundary or \
              corrupt-read-N")
    in
    Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Fault.name f))
  in
  let run scheme procs words depth line tag migration max_states fault jobs =
    let scope =
      { Mc.procs; words; line_words = line; timetag_bits = tag; depth; migration; max_states }
    in
    let schemes =
      match scheme with Some k -> [ k ] | None -> Hscd_sim.Run.extended_schemes
    in
    Printf.printf "bounded check: %s%s\n%!" (Mc.describe_scope scope)
      (match fault with Some f -> ", fault " ^ Fault.name f | None -> "");
    let jobs = resolve_jobs jobs in
    let reports = Mc.check_all ?fault ~jobs ~schemes scope in
    List.iter (fun r -> print_endline (Mc.describe r)) reports;
    List.iter
      (fun (r : Mc.report) ->
        match r.Mc.counterexample with
        | None -> ()
        | Some cx ->
          let _trace, o = Mc.replay ?fault ~jobs scope cx in
          Printf.printf "engine replay of the %s counterexample: %s\n%s"
            (Hscd_sim.Run.scheme_name r.Mc.kind)
            (if Oracle.ok o then "oracle CLEAN (abstract violation not reproduced)"
             else "oracle flags it")
            (Oracle.describe o))
      reports;
    let bad = List.length (List.filter (fun r -> not (Mc.ok r)) reports) in
    if bad > 0 then Err.fail Err.Check "%d scheme(s) failed the bounded check" bad
  in
  let scheme_opt_arg =
    Arg.(value & opt (some scheme_conv) None
         & info [ "s"; "scheme" ] ~doc:"Scheme to check (default: all seven)")
  in
  let procs_arg =
    Arg.(value & opt int Mc.default_scope.Mc.procs
         & info [ "p"; "procs" ] ~doc:"Processors (= tasks per parallel epoch)")
  in
  let words_arg =
    Arg.(value & opt int Mc.default_scope.Mc.words & info [ "w"; "words" ] ~doc:"Shared data words")
  in
  let depth_arg =
    Arg.(value & opt int Mc.default_scope.Mc.depth
         & info [ "d"; "depth" ] ~doc:"Bound on actions per explored path")
  in
  let line_arg =
    Arg.(value & opt int Mc.default_scope.Mc.line_words
         & info [ "line-words" ] ~doc:"Cache line size in words")
  in
  let tag_arg =
    Arg.(value & opt int Mc.default_scope.Mc.timetag_bits
         & info [ "timetag-bits" ] ~doc:"TPI timetag width (2 = tightest wrap window)")
  in
  let migration_arg =
    Arg.(value & flag
         & info [ "migration" ]
             ~doc:"Explore under dynamic scheduling with mid-task migration guard rules")
  in
  let max_states_arg =
    Arg.(value & opt int Mc.default_scope.Mc.max_states
         & info [ "max-states" ] ~doc:"State cap; the search reports truncation beyond it")
  in
  let fault_arg =
    Arg.(value & opt (some fault_conv) None
         & info [ "fault" ] ~docv:"FAULT"
             ~doc:"Inject a coherence bug (stale-time-read+K, ignore-time-read, \
                   skip-epoch-boundary, corrupt-read-N) and expect a counterexample")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Bounded exhaustive model check of the coherence schemes with counterexample \
             replay through the timing engine")
    Term.(const run $ scheme_opt_arg $ procs_arg $ words_arg $ depth_arg $ line_arg $ tag_arg
          $ migration_arg $ max_states_arg $ fault_arg $ jobs_arg)

(* ---- service mode: the sweep daemon and its client ---- *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "hscd.sock"

let socket_arg =
  Arg.(value & opt string default_socket
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon")

let tenant_name_arg =
  Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant to submit as")

let serve_cmd =
  let module Server = Hscd_service.Server in
  let tenant_conv =
    (* NAME:WEIGHT:CAPACITY, e.g. ci:4:32 *)
    let parse s =
      match String.split_on_char ':' s with
      | [ name; w; c ] -> (
        match (int_of_string_opt w, int_of_string_opt c) with
        | Some weight, Some capacity when weight >= 1 && capacity >= 1 ->
          Ok (name, { Hscd_service.Scheduler.weight; capacity })
        | _ -> Error (`Msg "tenant WEIGHT and CAPACITY must be integers >= 1")
        )
      | _ -> Error (`Msg "tenant spec must be NAME:WEIGHT:CAPACITY")
    in
    let print fmt (n, (c : Hscd_service.Scheduler.config)) =
      Format.fprintf fmt "%s:%d:%d" n c.weight c.capacity
    in
    Arg.conv (parse, print)
  in
  let run socket state tenants strict max_pending =
    Server.install_signal_handlers ();
    let settings =
      {
        (Server.default_settings ~socket ~state_dir:state) with
        Server.tenants;
        strict;
        max_pending;
      }
    in
    Err.get_exn (Server.serve settings)
  in
  let state_arg =
    Arg.(value & opt string "hscd-state"
         & info [ "state" ] ~docv:"DIR"
             ~doc:"State directory: the admission journal and per-job cell journals that \
                   make a kill-and-restart resume bit-identically")
  in
  let tenants_arg =
    Arg.(value & opt_all tenant_conv []
         & info [ "tenant" ] ~docv:"NAME:WEIGHT:CAPACITY"
             ~doc:"Declare a tenant with its round-robin weight and bounded queue \
                   capacity (repeatable)")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Reject submissions from tenants not declared with $(b,--tenant) \
                   (otherwise unknown tenants are admitted with weight 1)")
  in
  let max_pending_arg =
    Arg.(value & opt int 256
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Global cap on queued jobs across all tenants; beyond it submissions \
                   get a Busy reply")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant sweep daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P "Serves compile/compare/sweep jobs from many concurrent clients over a \
               Unix-domain socket, scheduling tenants by two-stage weighted round-robin \
               (weighted pick of tenant, FCFS within the tenant) with bounded queues. \
               Every accepted job is journaled before it is acknowledged, and every \
               completed simulation cell is journaled as it finishes, so killing the \
               daemon at any instant loses at most the in-flight cell: a restarted \
               daemon resumes unfinished jobs bit-identically.";
           `P "SIGTERM or SIGINT drains gracefully: admission stops (Busy replies), the \
               in-flight cell finishes and is checkpointed, and the daemon exits 0.";
         ])
    Term.(const run $ socket_arg $ state_arg $ tenants_arg $ strict_arg $ max_pending_arg)

let submit_cmd =
  let module P = Hscd_service.Protocol in
  let module Client = Hscd_service.Client in
  let schemes_conv =
    let parse s = Ok (String.split_on_char ',' s |> List.map String.trim) in
    Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (String.concat "," l))
  in
  let run kind target schemes procs line tag small socket tenant =
    let cfg = { P.processors = procs; line_words = line; timetag_bits = tag } in
    let need_target () =
      match target with
      | Some t -> t
      | None -> Err.fail Err.Usage "%s needs a TARGET (benchmark or kernel name)" kind
    in
    let spec =
      match kind with
      | "compile" -> P.Compile { target = need_target (); cfg; small }
      | "compare" -> P.Compare { target = need_target (); schemes; cfg; small }
      | "sweep" -> P.Sweep { schemes; cfg; small }
      | k -> Err.fail Err.Usage "unknown job kind %s (known: compile, compare, sweep)" k
    in
    let on_progress ~cell ~finished ~total =
      Printf.printf "cell %-16s (%d/%d)\n%!" cell finished total
    in
    match Err.get_exn (Client.run_job ~on_progress ~socket ~tenant spec) with
    | P.Compiled { target; epochs; events } ->
      Printf.printf "compiled %s: %d epochs, %d events\n" target epochs events
    | P.Cells cells ->
      List.iter
        (fun { P.cell; result } ->
          Printf.printf "%s\n" cell;
          match Hscd_sim.Run.scheme_of_name (List.hd (List.rev (String.split_on_char '/' cell))) with
          | Ok k -> print_metrics k result
          | Error _ -> ())
        cells
  in
  let kind_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KIND" ~doc:"Job kind: compile, compare or sweep")
  in
  let target_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"TARGET" ~doc:"Benchmark or kernel (compile/compare jobs)")
  in
  let schemes_arg =
    Arg.(value & opt schemes_conv [ "BASE"; "SC"; "TPI"; "HW" ]
         & info [ "schemes" ] ~docv:"LIST" ~doc:"Comma-separated coherence schemes")
  in
  let small_arg =
    Arg.(value & flag & info [ "small" ] ~doc:"Use test-scale benchmark sizes")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job to a running sweep daemon and wait for the result"
       ~man:
         [
           `S Manpage.s_description;
           `P "Connects to $(b,hscd serve), submits one job, streams per-cell progress \
               and prints the results. The job's identity is the digest of its spec: \
               resubmitting after a daemon crash (or from a second client) attaches to \
               the same execution and journal rather than recomputing. Busy replies \
               (bounded tenant queue full, daemon draining) and daemon restarts are \
               retried with bounded exponential backoff; Rejected replies (unknown \
               tenant under --strict, invalid job) exit immediately with code 5.";
         ])
    Term.(const run $ kind_arg $ target_arg $ schemes_arg $ procs_arg $ line_arg $ tag_arg
          $ small_arg $ socket_arg $ tenant_name_arg)

let list_cmd =
  let run () =
    print_endline "Perfect Club benchmark models:";
    List.iter
      (fun (e : Hscd_workloads.Perfect.entry) -> Printf.printf "  %-8s %s\n" e.name e.description)
      Hscd_workloads.Perfect.all;
    print_endline "Microkernels:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Hscd_workloads.Kernels.all;
    print_endline "Experiments:";
    List.iter
      (fun (e : Hscd_experiments.Experiments.t) ->
        Printf.printf "  %-10s %s (%s)\n" e.id e.title e.paper_ref)
      Hscd_experiments.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, kernels and experiments") Term.(const run $ const ())

(* Normalized exit codes: 0 success, 1 result failure (fuzz findings,
   corrupt input, failed sweep), 2 usage error, 3 internal error, 4 busy
   (service backpressure), 5 rejected (service admission policy), and
   128+signum after SIGINT/SIGTERM (130/143). *)
let () =
  let man =
    [
      `S Manpage.s_exit_status;
      `P "$(b,0) on success (including a daemon's graceful SIGTERM drain); $(b,1) on a \
          result failure (the fuzzer found bugs, an input was corrupt, a sweep could not \
          complete); $(b,2) on usage errors; $(b,3) on internal errors; $(b,4) when the \
          service answered Busy (bounded queue full or draining — retryable); $(b,5) when \
          the service rejected the job (unknown tenant under --strict, invalid job — not \
          retryable); $(b,130)/$(b,143) (128+signum) when a long-running command was \
          interrupted by SIGINT/SIGTERM after checkpointing completed cells.";
    ]
  in
  let info =
    Cmd.info "hscd" ~version:"1.0.0" ~man
      ~doc:"HSCD cache coherence reproduction (Choi & Yew, ISCA'96)"
  in
  let group =
    Cmd.group info
      [ mark_cmd; sim_cmd; compare_cmd; experiment_cmd; trace_cmd; replay_cmd; fuzz_cmd;
        check_cmd; serve_cmd; submit_cmd; list_cmd ]
  in
  let code =
    match Cmd.eval_value ~catch:false group with
    | Ok (`Ok ()) -> 0
    | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2 (* cmdliner already printed the usage message *)
    | Error `Exn -> 3 (* unreachable with ~catch:false, kept for totality *)
    | exception Err.Error e ->
      Printf.eprintf "hscd: %s\n" (Err.to_string e);
      Err.exit_code e
    | exception exn ->
      Printf.eprintf "hscd: internal error: %s\n" (Printexc.to_string exn);
      3
  in
  exit code
