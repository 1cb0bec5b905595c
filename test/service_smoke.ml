(* Service chaos harness: a real forked `hscd serve` daemon exercised the
   unfriendly way —
   - two tenants submitting overlapping jobs concurrently, results checked
     bit-identically against an in-process sequential reference;
   - duplicate submissions deduplicated by job digest;
   - admission control: a capacity-1 tenant gets Accepted/Busy/Busy for a
     back-to-back burst, an unknown tenant under --strict gets Rejected,
     an invalid job gets Rejected;
   - SIGKILL mid-sweep, restart, and an idempotent resubmit that resumes
     from the cell journal and still matches the reference bit-for-bit;
   - after that restart, a job finished before the kill answered at once
     from its recovered [done] record, and a [done] record with a flipped
     byte never served: the job runs again, bit-identically;
   - a hung client parking half a frame while others complete jobs;
   - a flipped bit on the wire dropping only the offending connection;
   - SIGTERM draining gracefully (exit 0, socket unlinked), both idle and
     mid-sweep: the interrupted sweep keeps its journaled cells, stays
     accepted but not done, and a restarted daemon completes it
     bit-identically;
   - with `--fd-probe DIR` (run by the main body under `ulimit -n 32`):
     hundreds of failing journal/trace opens inside a 32-descriptor
     budget, the regression test for close-on-error paths.

   The references are computed inline (compile_result + simulate_packed —
   the exact calls a sequential `hscd experiment` cell makes) before the
   first fork, so the parent never spawns domains. *)

module E = Hscd_util.Hscd_error
module P = Hscd_service.Protocol
module Server = Hscd_service.Server
module Client = Hscd_service.Client
module Sched = Hscd_service.Scheduler
module Run = Hscd_sim.Run
module Perfect = Hscd_workloads.Perfect

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let get what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (E.to_string e))

(* ------------------------------------------------------------------ *)
(* --fd-probe: failing opens under a 32-descriptor ulimit              *)
(* ------------------------------------------------------------------ *)

let fd_probe dir =
  let garbage = Filename.concat dir "garbage.bin" in
  let oc = open_out_bin garbage in
  output_string oc "NOTAMAGIC this is neither a journal nor a trace\n";
  close_out oc;
  let truncated = Filename.concat dir "truncated.jnl" in
  let oc = open_out_bin truncated in
  output_string oc "HSCDJNL1";
  output_string oc "\x0c\x00\x00\x00\x00\x00\x00\x00torn";
  close_out oc;
  for _ = 1 to 256 do
    (match Hscd_util.Journal.load garbage with Ok _ -> exit 9 | Error _ -> ());
    (match Hscd_util.Journal.open_append garbage with Ok _ -> exit 9 | Error _ -> ());
    (match Hscd_util.Journal.open_append truncated with
    | Ok (j, _) -> Hscd_util.Journal.close j
    | Error _ -> ());
    (match E.guard (fun () -> Hscd_sim.Trace_io.load garbage) with
    | Ok _ -> exit 9
    | Error _ -> ());
    (match E.guard (fun () -> Hscd_sim.Trace_io.read_packed garbage) with
    | Ok _ -> exit 9
    | Error _ -> ());
    ignore (Hscd_sim.Trace_io.is_binary garbage)
  done;
  print_endline "fd-probe: 256 failing-open iterations within a 32-fd budget";
  exit 0

let () =
  match Sys.argv with
  | [| _; "--fd-probe"; dir |] -> fd_probe dir
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let tmpdir =
  let f = Filename.temp_file "hscd-service" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let socket = Filename.concat tmpdir "daemon.sock"
let state = Filename.concat tmpdir "state"
let schemes = [ "TPI"; "HW" ]
let cfg_spec = { P.processors = 16; line_words = 4; timetag_bits = 8 }

(* the chaos-kill sweep: a distinct grid (different timetags, one scheme)
   so it shares nothing with the first sweep's done record *)
let chaos_schemes = [ "TPI" ]
let chaos_cfg_spec = { cfg_spec with P.timetag_bits = 4 }

(* the mid-sweep drain: evaluation scale and the paper's four schemes, 24
   cells, long enough that a SIGTERM sent on the first Progress frame
   lands well before the last cell *)
let drain_schemes = [ "BASE"; "SC"; "TPI"; "HW" ]

(* Sequential reference, inline (domain-free — the parent forks later).
   These are the same compile_result/simulate_packed calls a sequential
   `hscd experiment` cell makes, so bit-identity against them is
   bit-identity against the CLI path. *)
let reference ?(small = true) spec_cfg names =
  let cfg = P.config_of_spec spec_cfg in
  List.concat_map
    (fun (e : Perfect.entry) ->
      let program = if small then e.build_small () else e.build () in
      let c = get "reference compile" (Run.compile_result ~cfg ~intertask:true program) in
      List.map
        (fun s ->
          let kind = get "reference scheme" (Run.scheme_of_name s) in
          (e.name ^ "/" ^ Run.scheme_name kind, Run.simulate_packed ~cfg kind c.Run.packed_trace))
        names)
    Perfect.all

let cells_match payload reference =
  match payload with
  | P.Cells cells ->
    List.length cells = List.length reference
    && List.for_all
         (fun { P.cell; result } ->
           match List.assoc_opt cell reference with
           | Some r -> r = result (* full structural equality: bit-identical metrics *)
           | None -> false)
         cells
  | P.Compiled _ -> false

(* ------------------------------------------------------------------ *)
(* Daemon control                                                      *)
(* ------------------------------------------------------------------ *)

let daemon_settings () =
  {
    (Server.default_settings ~socket ~state_dir:state) with
    Server.tenants =
      [
        ("alice", { Sched.weight = 2; capacity = 64 });
        ("bob", { Sched.weight = 1; capacity = 64 });
        ("cap1", { Sched.weight = 1; capacity = 1 });
      ];
    strict = true;
  }

let start_daemon ?(delay = 0.0) () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       if delay > 0.0 then Unix.sleepf delay;
       Server.reset_drain_for_testing ();
       Server.install_signal_handlers ();
       match Server.serve (daemon_settings ()) with
       | Ok () -> exit 0
       | Error e ->
         prerr_endline ("daemon: " ^ E.to_string e);
         exit 1
     with exn ->
       prerr_endline ("daemon: " ^ Printexc.to_string exn);
       exit 2)
  | pid -> pid

let check_exit_0 name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> check name true
  | _, status ->
    check
      (Printf.sprintf "%s (got %s)" name
         (match status with
         | Unix.WEXITED n -> Printf.sprintf "exit %d" n
         | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
         | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n))
      false

(* a job journal's records, split into those bit-identical to the
   reference cell of the same name and the rest *)
let journal_cells digest reference =
  match Hscd_util.Journal.load (Filename.concat state ("job-" ^ digest ^ ".jnl")) with
  | Ok entries ->
    List.partition
      (fun (key, payload) ->
        match (Marshal.from_string payload 0 : Hscd_sim.Engine.result) with
        | r -> List.assoc_opt key reference = Some r
        | exception _ -> false)
      entries
  | Error _ -> ([], [])

(* the [jobs.jnl] record keys: [accept|digest] and [done|digest] *)
let jobs_journal_keys () =
  match Hscd_util.Journal.load (Filename.concat state "jobs.jnl") with
  | Ok entries -> List.map fst entries
  | Error e -> failwith ("jobs.jnl: " ^ E.to_string e)

let wait_ready () =
  let rec go n =
    if n = 0 then failwith "daemon did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error (_, _, _) ->
      Unix.close fd;
      Unix.sleepf 0.1;
      go (n - 1)
  in
  go 100

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let () =
  (* the low-ulimit fd regression runs first: it re-executes this binary
     in probe mode inside a 32-descriptor budget *)
  let probe_dir = Filename.concat tmpdir "fd-probe" in
  Unix.mkdir probe_dir 0o755;
  let cmd =
    Printf.sprintf "ulimit -n 32; exec %s --fd-probe %s"
      (Filename.quote Sys.executable_name) (Filename.quote probe_dir)
  in
  (match Unix.system ("/bin/sh -c " ^ Filename.quote cmd) with
  | Unix.WEXITED 0 -> check "fd probe: failing opens fit a 32-fd ulimit" true
  | status ->
    check
      (Printf.sprintf "fd probe: failing opens fit a 32-fd ulimit (got %s)"
         (match status with
         | Unix.WEXITED n -> Printf.sprintf "exit %d" n
         | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
         | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n))
      false);

  let sweep_ref = reference cfg_spec schemes in
  let chaos_ref = reference chaos_cfg_spec chaos_schemes in
  let drain_ref = reference ~small:false cfg_spec drain_schemes in
  let sweep_spec = P.Sweep { schemes; cfg = cfg_spec; small = true } in
  let compare_spec = P.Compare { target = "TRFD"; schemes; cfg = cfg_spec; small = true } in
  let chaos_spec = P.Sweep { schemes = chaos_schemes; cfg = chaos_cfg_spec; small = true } in

  let pid = start_daemon () in
  wait_ready ();

  (* --- two tenants, overlapping jobs, one daemon --- *)
  let ta = get "connect alice" (Client.connect ~socket ~tenant:"alice" ()) in
  let tb = get "connect bob" (Client.connect ~socket ~tenant:"bob" ()) in
  let da, ticket_a = get "submit sweep" (Client.submit ta sweep_spec) in
  let db, ticket_b = get "submit compare" (Client.submit tb compare_spec) in
  check "both overlapping submissions accepted"
    (match (ticket_a, ticket_b) with Client.Queued _, Client.Queued _ -> true | _ -> false);
  let progress = ref 0 in
  let pa =
    get "await sweep"
      (Client.await ~on_progress:(fun ~cell:_ ~finished:_ ~total:_ -> incr progress) ta ~digest:da)
  in
  let pb = get "await compare" (Client.await tb ~digest:db) in
  check "sweep results bit-identical to the sequential reference" (cells_match pa sweep_ref);
  check "one progress frame per sweep cell" (!progress = List.length sweep_ref);
  check "overlapping compare job matches the same reference cells"
    (match pb with
    | P.Cells cells ->
      cells <> []
      && List.for_all
           (fun { P.cell; result } -> List.assoc_opt cell sweep_ref = Some result)
           cells
    | P.Compiled _ -> false);

  (* --- dedup by digest: same spec from another client is not re-run --- *)
  (match Client.submit tb sweep_spec with
  | Ok (d, Client.Finished payload) ->
    check "duplicate digest returns the finished payload" (d = da && payload = pa)
  | Ok (_, Client.Queued _) -> check "duplicate digest returns the finished payload" false
  | Error e -> failwith ("dedup submit: " ^ E.to_string e));
  Client.close ta;
  Client.close tb;

  (* --- admission: capacity-1 tenant, back-to-back burst --- *)
  let tc = get "connect cap1" (Client.connect ~socket ~tenant:"cap1" ()) in
  let burst =
    List.map
      (fun tag -> P.Compile { target = "jacobi1d"; cfg = { cfg_spec with P.timetag_bits = tag }; small = true })
      [ 5; 6; 7 ]
  in
  (* one write carrying all three Submit frames: the daemon admits from a
     single read, so the replies are deterministic *)
  get "burst write"
    (Client.send_frame tc
       (String.concat ""
          (List.map
             (fun spec -> P.encode_request (P.Submit { digest = P.job_digest spec; spec }))
             burst)));
  let r1 = get "burst reply 1" (Client.recv_response tc) in
  let r2 = get "burst reply 2" (Client.recv_response tc) in
  let r3 = get "burst reply 3" (Client.recv_response tc) in
  check "burst: first Accepted, rest Busy (bounded queue, no hang)"
    (match (r1, r2, r3) with
    | P.Accepted _, P.Busy_reply _, P.Busy_reply _ -> true
    | _ -> false);
  Client.close tc;

  (* --- strict admission: unknown tenant and invalid job are Rejected --- *)
  let tm = get "connect mallory" (Client.connect ~socket ~tenant:"mallory" ()) in
  (match Client.submit tm (P.Compile { target = "jacobi1d"; cfg = cfg_spec; small = true }) with
  | Error e ->
    check "unknown tenant under --strict is Rejected with exit code 5"
      (e.E.kind = E.Rejected && E.exit_code e = 5 && not (E.transient e))
  | Ok _ -> check "unknown tenant under --strict is Rejected with exit code 5" false);
  Client.close tm;
  let ta = get "reconnect alice" (Client.connect ~socket ~tenant:"alice" ()) in
  (match Client.submit ta (P.Compare { target = "NOPE"; schemes; cfg = cfg_spec; small = true }) with
  | Error e -> check "invalid target is Rejected, not deferred" (e.E.kind = E.Rejected)
  | Ok _ -> check "invalid target is Rejected, not deferred" false);

  (* --- hung client: half a frame parked forever blocks nobody --- *)
  let hung = get "connect hung" (Client.connect ~socket ~tenant:"bob" ()) in
  let half =
    let spec = P.Compile { target = "matmul"; cfg = cfg_spec; small = true } in
    let s = P.encode_request (P.Submit { digest = P.job_digest spec; spec }) in
    String.sub s 0 (String.length s / 2)
  in
  get "hung half-frame write" (Client.send_frame hung half);
  (match Client.submit ta (P.Compile { target = "jacobi1d"; cfg = cfg_spec; small = true }) with
  | Ok (d, Client.Queued _) -> (
    match Client.await ta ~digest:d with
    | Ok (P.Compiled { target; _ }) ->
      check "another client completes a job while one hangs" (target = "jacobi1d")
    | _ -> check "another client completes a job while one hangs" false)
  | Ok (_, Client.Finished (P.Compiled _)) ->
    check "another client completes a job while one hangs" true
  | _ -> check "another client completes a job while one hangs" false);
  Client.close ta;

  (* --- a flipped bit on the wire drops only that connection --- *)
  let tw = get "connect bitflip" (Client.connect ~socket ~tenant:"bob" ()) in
  let corrupted =
    let spec = P.Compile { target = "reduction"; cfg = cfg_spec; small = true } in
    let s = Bytes.of_string (P.encode_request (P.Submit { digest = P.job_digest spec; spec })) in
    let i = P.header_bytes + 5 in
    Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x10));
    Bytes.to_string s
  in
  get "corrupt frame write" (Client.send_frame tw corrupted);
  (match Client.recv_response tw with
  | Error e -> check "server drops the connection on a corrupt frame" (e.E.kind = E.Io)
  | Ok _ -> check "server drops the connection on a corrupt frame" false);
  Client.close tw;
  let tf = get "connect after bitflip" (Client.connect ~socket ~tenant:"alice" ()) in
  (match Client.request tf P.Ping with
  | Ok P.Pong -> check "daemon healthy after dropping the corrupt connection" true
  | _ -> check "daemon healthy after dropping the corrupt connection" false);
  Client.close tf;

  (* --- chaos: SIGKILL mid-sweep, restart, resubmit, bit-identical --- *)
  let tk = get "connect chaos" (Client.connect ~socket ~tenant:"alice" ()) in
  let dk, _ = get "submit chaos sweep" (Client.submit tk chaos_spec) in
  let seen = ref 0 in
  let rec watch () =
    if !seen < 3 then
      match Client.recv_response tk with
      | Ok (P.Progress { digest; _ }) when digest = dk ->
        incr seen;
        watch ()
      | Ok _ -> watch ()
      | Error e -> failwith ("chaos watch: " ^ E.to_string e)
  in
  watch ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Client.close tk;
  check "daemon killed mid-sweep after 3 checkpointed cells" (!seen = 3);
  (* the kill left durable, bit-identical cells behind: this is what the
     restarted daemon resumes from instead of re-simulating *)
  let journaled, _ = journal_cells dk chaos_ref in
  check
    (Printf.sprintf "cell journal survived the kill with %d reference-identical cells"
       (List.length journaled))
    (List.length journaled >= 3);
  (* restart comes up slowly: the client's bounded backoff has to carry
     the reconnect, and the resubmitted digest must resume, not restart *)
  let pid = start_daemon ~delay:0.4 () in
  let resumed = ref 0 in
  let payload =
    get "resubmit after kill"
      (Client.run_job
         ~on_progress:(fun ~cell:_ ~finished:_ ~total:_ -> incr resumed)
         ~socket ~tenant:"alice" chaos_spec)
  in
  check "post-crash results bit-identical to the reference" (cells_match payload chaos_ref);
  check
    (Printf.sprintf "resumed run replayed only missing cells (%d fresh of %d)" !resumed
       (List.length chaos_ref))
    (!resumed < List.length chaos_ref);

  (* --- a job finished before the kill: answered from its done record --- *)
  let count key = List.length (List.filter (( = ) key) (jobs_journal_keys ())) in
  let tr = get "connect repeat" (Client.connect ~socket ~tenant:"bob" ()) in
  (match Client.submit tr sweep_spec with
  | Ok (d, Client.Finished payload) ->
    check "restarted daemon answers a pre-kill job at once with its original payload" (d = da && payload = pa)
  | Ok (_, Client.Queued _) -> check "restarted daemon answers a pre-kill job at once with its original payload" false
  | Error e -> failwith ("repeat submit: " ^ E.to_string e));
  Client.close tr;
  check "the pre-kill job was neither admitted nor run again"
    (count ("accept|" ^ da) = 1 && count ("done|" ^ da) = 1);

  (* --- a done record that fails its checksum is never served --- *)
  let jobs_jnl = Filename.concat state "jobs.jnl" in
  let keys = jobs_journal_keys () in
  check "the chaos job's done record ends jobs.jnl" (List.nth keys (List.length keys - 1) = "done|" ^ dk);
  (* a byte inside its payload: the last 8 bytes are the checksum *)
  let flipped = (Unix.stat jobs_jnl).Unix.st_size - 10 in
  Hscd_check.Fault.Chaos.corrupt_file jobs_jnl ~byte:flipped;
  let rerun = ref 0 in
  let payload =
    get "resubmit over a corrupt done record"
      (Client.run_job ~on_progress:(fun ~cell:_ ~finished:_ ~total:_ -> incr rerun) ~socket ~tenant:"alice" chaos_spec)
  in
  check "a corrupt done record reruns the job bit-identically"
    (cells_match payload chaos_ref && !rerun = List.length chaos_ref);
  (* unflip, so later restarts recover every record after it *)
  Hscd_check.Fault.Chaos.corrupt_file jobs_jnl ~byte:flipped;
  let tr = get "connect repeat" (Client.connect ~socket ~tenant:"alice" ()) in
  (match Client.submit tr chaos_spec with
  | Ok (_, Client.Finished payload) -> check "the rerun's done record serves the next repeat" (cells_match payload chaos_ref)
  | Ok (_, Client.Queued _) -> check "the rerun's done record serves the next repeat" false
  | Error e -> failwith ("repeat submit: " ^ E.to_string e));
  Client.close tr;

  (* --- graceful drain: SIGTERM exits 0 and unlinks the socket --- *)
  Unix.kill pid Sys.sigterm;
  check_exit_0 "SIGTERM drains gracefully with exit 0" pid;
  check "drained daemon unlinked its socket" (not (Sys.file_exists socket));

  (* --- SIGTERM mid-sweep: checkpointed and kept, neither failed nor done --- *)
  let pid = start_daemon () in
  wait_ready ();
  let td = get "connect drain" (Client.connect ~socket ~tenant:"alice" ()) in
  let drain_spec = P.Sweep { schemes = drain_schemes; cfg = cfg_spec; small = false } in
  let dd, _ = get "submit drain sweep" (Client.submit td drain_spec) in
  let rec first_progress () =
    match Client.recv_response td with
    | Ok (P.Progress { digest; _ }) when digest = dd -> ()
    | Ok _ -> first_progress ()
    | Error e -> failwith ("drain watch: " ^ E.to_string e)
  in
  first_progress ();
  Unix.kill pid Sys.sigterm;
  check_exit_0 "SIGTERM mid-sweep drains with exit 0" pid;
  Client.close td;
  let same, differing = journal_cells dd drain_ref in
  let n = List.length same + List.length differing in
  check
    (Printf.sprintf "drained sweep journaled %d of %d cells" n (List.length drain_ref))
    (n >= 1 && n < List.length drain_ref);
  check "every journaled cell is bit-identical to the reference" (differing = []);
  let keys = jobs_journal_keys () in
  check "jobs.jnl keeps the drained job accepted, not done"
    (List.mem ("accept|" ^ dd) keys && not (List.mem ("done|" ^ dd) keys));
  let pid = start_daemon () in
  let payload =
    get "resubmit after drain" (Client.run_job ~socket ~tenant:"alice" drain_spec)
  in
  check "restarted daemon completes the drained sweep bit-identically"
    (cells_match payload drain_ref);
  Unix.kill pid Sys.sigterm;
  check_exit_0 "restarted daemon drains with exit 0" pid;

  if !failures > 0 then begin
    Printf.printf "service_smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "service_smoke: all scenarios passed"
