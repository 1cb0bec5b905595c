(** daemon-tenants: a forked [hscd serve] daemon with two tenants, each
    one connection running a closed loop of jobs from its own seeded
    list. Per block of ten jobs: seven fresh [Compare] jobs (a small
    Perfect Club model or a kernel, the paper's four schemes, seeded
    processors / timetag bits / line size — compute plus journal writes),
    two repeats of the tenant's earlier specs (the digest-dedup read
    path) and one [Compile] job. Latency is from submit to [Done]; the
    two tenants queue behind each other in the single-threaded daemon. *)

module P = Hscd_service.Protocol
module Client = Hscd_service.Client
module Server = Hscd_service.Server
module E = Hscd_util.Hscd_error
module Prng = Hscd_util.Prng
module Run = Hscd_sim.Run
module W = Hscd_workloads
module R = Report

let targets = Array.of_list (W.Perfect.names @ List.map fst W.Kernels.all)
let paper_schemes = List.map Run.scheme_name Run.all_schemes
let tenants = [| "tenant-a"; "tenant-b" |]

(* ---- job lists ---- *)

(* jobs per block: the unit of the job mix *)
let block = 10

type job = Fresh of P.job_spec | Repeat of int  (** index of an earlier fresh job *) | Compile of P.job_spec

(* Large enough that no tenant runs out of fresh specs: 2025 per target,
   over 15 000 fresh compares per tenant, many times what a run does. *)
let cfg_space =
  let range lo hi = List.init (hi - lo + 1) (( + ) lo) in
  List.concat_map
    (fun processors ->
      List.concat_map
        (fun timetag_bits -> List.map (fun line_words -> { P.processors; timetag_bits; line_words }) [ 2; 4; 8 ])
        (range 2 16))
    (range 4 48)

(* Each target's machine configurations, shuffled once and dealt
   alternately to the two tenants, so no fresh spec of one tenant is ever
   a spec of the other. Fresh jobs cycle through the targets in a
   per-round seeded order. *)
let job_lists ~seed =
  let g = Prng.of_int seed in
  let dealt =
    Array.map
      (fun _ ->
        let a = Array.of_list cfg_space in
        Prng.shuffle g a;
        Array.init 2 (fun t -> Array.of_list (List.filteri (fun i _ -> i mod 2 = t) (Array.to_list a))))
      targets
  in
  let nt = Array.length targets in
  Array.init 2 (fun t ->
      let perm = Array.init nt Fun.id in
      let spec k ~compile =
        if k mod nt = 0 then Prng.shuffle g perm;
        let ti = perm.(k mod nt) in
        let cfg = dealt.(ti).(t).(k / nt) in
        let target = targets.(ti) in
        if compile then P.Compile { target; cfg; small = true }
        else P.Compare { target; schemes = paper_schemes; cfg; small = true }
      in
      let fresh = ref 0 and compiles = ref 0 in
      (* whole blocks while fresh specs last *)
      let blocks = Array.length dealt.(0).(t) * nt / 8 in
      List.concat
        (List.init blocks (fun _ ->
             let kinds = [| `F; `F; `F; `F; `F; `F; `F; `R; `R; `C |] in
             Prng.shuffle g kinds;
             Array.to_list
               (Array.map
                  (fun kind ->
                    match kind with
                    | `R when !fresh > 0 -> Repeat (Prng.int g !fresh)
                    | `C ->
                      incr compiles;
                      Compile (spec (!compiles - 1) ~compile:true)
                    | `F | `R ->
                      incr fresh;
                      Fresh (spec (!fresh - 1) ~compile:false))
                  kinds)))
      |> Array.of_list)

(* ---- the daemon ---- *)

type daemon = { pid : int; dir : string; clients : Client.t array }

let tmp_root = ".ledger-tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let tree_bytes dir =
  Array.fold_left
    (fun acc f -> acc + try (Unix.stat (Filename.concat dir f)).Unix.st_size with Unix.Unix_error _ -> 0)
    0 (Sys.readdir dir)

let stats_file dir = Filename.concat dir "daemon-stats"

(* The child serves until SIGTERM drains it, then leaves its own
   counters behind for the parent. It exits with [_exit] so the parent's
   buffers are never flushed twice. *)
let child ~dir ~ready_w =
  let code =
    try
      Run.reset_compile_cache ();
      let gc0 = Gc.quick_stat () in
      Server.reset_drain_for_testing ();
      Server.install_signal_handlers ();
      let settings = Server.default_settings ~socket:(Filename.concat dir "sock") ~state_dir:dir in
      let on_ready () = ignore (Unix.write_substring ready_w "r" 0 1) in
      match Server.serve ~on_ready settings with
      | Error e ->
        prerr_endline ("ledger daemon: " ^ E.to_string e);
        1
      | Ok () ->
        let gc1 = Gc.quick_stat () and cs = Run.compile_cache_stats () in
        let oc = open_out (stats_file dir) in
        Printf.fprintf oc "minor_words %.0f\nmajor_collections %d\ntop_heap_words %d\nvmhwm_kb %.0f\n"
          (gc1.Gc.minor_words -. gc0.Gc.minor_words)
          (gc1.Gc.major_collections - gc0.Gc.major_collections)
          gc1.Gc.top_heap_words (Measure.status_kb "VmHWM");
        Printf.fprintf oc "trace_generations %d\nmemory_hits %d\n" cs.Run.trace_generations cs.Run.memory_hits;
        close_out oc;
        0
    with exn ->
      prerr_endline ("ledger daemon: " ^ Printexc.to_string exn);
      2
  in
  Unix._exit code

let read_stats dir =
  List.filter_map
    (fun l -> match String.split_on_char ' ' l with [ k; v ] -> Some (k, float_of_string v) | _ -> None)
    (Measure.read_lines (stats_file dir))

(* daemons not yet reaped: killed on any exit, so none outlives the run *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let stop d =
  live := List.filter (( <> ) d.pid) !live;
  Array.iter Client.close d.clients;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.05;
      wait (n - 1)
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait n
  in
  wait 400

(* The warm-up pass: a compare of every other target per tenant, on a
   2-processor machine outside the timed configuration space. *)
let warmup t =
  let cfg = { P.processors = 2; line_words = 4; timetag_bits = 8 } in
  List.filteri (fun i _ -> i mod 2 = t) (Array.to_list targets)
  |> List.map (fun target -> P.Compare { target; schemes = paper_schemes; cfg; small = true })

let counter = ref 0

let start () =
  incr counter;
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let dir = Filename.concat tmp_root (Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) !counter) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    child ~dir ~ready_w
  | pid ->
    live := pid :: !live;
    Unix.close ready_w;
    let buf = Bytes.create 1 in
    let up = try Unix.read ready_r buf 0 1 = 1 with Unix.Unix_error _ -> false in
    Unix.close ready_r;
    if not up then failwith "daemon did not come up";
    let socket = Filename.concat dir "sock" in
    let clients =
      Array.map
        (fun tenant ->
          match Client.connect ~socket ~tenant () with
          | Ok c -> c
          | Error e -> failwith ("connect: " ^ E.to_string e))
        tenants
    in
    Array.iteri
      (fun t c ->
        List.iter
          (fun spec ->
            match Client.submit c spec with
            | Ok (_, Client.Finished _) -> ()
            | Ok (digest, Client.Queued _) -> ignore (Client.await c ~digest)
            | Error e -> failwith ("warm-up: " ^ E.to_string e))
          (warmup t))
      clients;
    { pid; dir; clients }

(* ---- the client loop ---- *)

type record = {
  index : int;
  job : job;
  spec : P.job_spec;
  submitted : float;
  acked : float;  (** Accepted (or an immediate Done) received *)
  finished : float;
  queued : bool;  (** Accepted, not answered from the done table *)
  progress : float list;  (** Progress frame arrival times *)
  outcome : (P.payload, E.t) result;
}

let latency r = r.finished -. r.submitted

let run_tenant (s : R.settings) ~client ~t ~jobs ~deadline ~min_jobs =
  let fresh_specs = Hashtbl.create 1024 in
  let records = ref [] in
  let j = ref 0 in
  while !j < Array.length jobs && (!j < min_jobs || Span.now () < deadline || !j mod block <> 0) do
    let job = jobs.(!j) in
    let spec =
      match job with
      | Fresh spec ->
        Hashtbl.replace fresh_specs (Hashtbl.length fresh_specs) spec;
        spec
      | Compile spec -> spec
      | Repeat k -> Hashtbl.find fresh_specs k
    in
    let traced = R.traced_op s ~batch:block !j in
    let progress = ref [] in
    let submitted = Span.now () in
    let acked, queued, outcome =
      R.span traced ~op:((t * 1_000_000) + !j) "bench.op" (fun () ->
          match R.span traced "service.submit" (fun () -> Client.submit client spec) with
          | Error e -> (submitted, false, Error e)
          | Ok (_, Client.Finished p) -> (Span.now (), false, Ok p)
          | Ok (digest, Client.Queued _) ->
            let acked = Span.now () in
            let on_progress ~cell:_ ~finished:_ ~total:_ = progress := Span.now () :: !progress in
            (acked, true, R.span traced "service.await" (fun () -> Client.await ~on_progress client ~digest)))
    in
    records :=
      { index = !j; job; spec; submitted; acked; finished = Span.now (); queued; progress = List.rev !progress; outcome }
      :: !records;
    incr j
  done;
  List.rev !records

(* ---- checks ---- *)

let cells_ok = function
  | P.Cells cells -> cells <> [] && List.for_all (fun (c : P.cell) -> Probe.ok c.result) cells
  | P.Compiled _ -> false

let accesses = function
  | P.Cells cells ->
    List.fold_left (fun a (c : P.cell) -> a +. float_of_int (Hscd_sim.Metrics.accesses c.result.metrics)) 0.0 cells
  | P.Compiled _ -> 0.0

(* Failed records of one tenant: a record is good when its reply is what
   its kind promises; a repeat must return its original's payload. *)
let bad_records records =
  let originals = Hashtbl.create 1024 in
  List.iter (fun r -> match (r.job, r.outcome) with Fresh _, Ok p -> Hashtbl.replace originals r.spec p | _ -> ()) records;
  List.length
    (List.filter
       (fun r ->
         match (r.job, r.outcome) with
         | _, Error _ -> true
         | Fresh _, Ok p -> not (cells_ok p)
         | Compile _, Ok (P.Compiled { events; _ }) -> events <= 0
         | Compile _, Ok (P.Cells _) -> true
         | Repeat _, Ok p -> Hashtbl.find_opt originals r.spec <> Some p)
       records)

(* The probe replays a sample of tenant a's fresh compares and must
   reproduce the daemon's cells bit for bit. *)
let probe_inputs records ~n =
  List.filter_map
    (fun r ->
      match (r.job, r.outcome) with
      | Fresh (P.Compare { target; cfg; _ }), Ok (P.Cells cells) ->
        let known =
          List.map
            (fun (c : P.cell) ->
              let scheme = List.nth (String.split_on_char '/' c.cell) 1 in
              (Result.get_ok (Run.scheme_of_name scheme), c.result))
            cells
        in
        Some (Probe.input ~label:target ~cfg:(P.config_of_spec cfg) ~known (Server.build_target target ~small:true))
      | _ -> None)
    records
  |> List.filteri (fun i _ -> i < n)

(* Client-side service numbers: the daemon's own layers. *)
let service_metrics all ~journal_bytes ~served =
  let queued = List.filter (fun r -> r.queued) all in
  let gaps =
    List.concat_map
      (fun r ->
        match r.progress with
        | [] -> []
        | p :: ps -> snd (List.fold_left (fun (prev, acc) x -> (x, (x -. prev) :: acc)) (p, []) ps))
      all
  in
  let ms xs = Measure.median xs *. 1000.0 in
  let response_bytes r =
    match r.outcome with
    | Ok payload -> float_of_int (String.length (P.encode_response (P.Done { digest = P.job_digest r.spec; payload })))
    | Error _ -> 0.0
  in
  let busy = List.filter (fun r -> match r.outcome with Error e -> e.E.kind = E.Busy | Ok _ -> false) all in
  [
    R.m "service.ack_ms_p50" (ms (List.map (fun r -> r.acked -. r.submitted) queued)) "ms";
    R.m "service.exec_ms_p50" (ms (List.map (fun r -> r.finished -. r.acked) queued)) "ms";
    R.m "service.cell_ms_p50" (ms gaps) "ms";
    R.m "service.dedup_ms_p50"
      (ms (List.filter_map (fun r -> match r.job with Repeat _ -> Some (latency r) | _ -> None) all))
      "ms";
    R.m "service.response_kb_per_job" (Hscd_util.Stats.mean (List.map response_bytes all) /. 1024.0) "KB";
    R.m "service.journal_kb_per_job" (float_of_int journal_bytes /. served /. 1024.0) "KB";
    R.m "service.busy_replies" (float_of_int (List.length busy)) "count";
  ]

let run (s : R.settings) ~expected =
  let digest_jobs = if s.smoke then block else 5 * block in
  let min_jobs = R.min_ops s ~batch:block digest_jobs in
  let jobs = job_lists ~seed:s.seed in
  let daemon, setup_s =
    Measure.setup ~reps:(if s.smoke then 1 else 5)
      ~teardown:(fun d ->
        ignore (stop d);
        remove_tree d.dir)
      start
  in
  let t0 = Span.now () in
  let deadline = t0 +. s.seconds in
  let results = Array.make 2 [] and crashed = ref false in
  let threads =
    Array.init 2 (fun t ->
        Thread.create
          (fun () ->
            try results.(t) <- run_tenant s ~client:daemon.clients.(t) ~t ~jobs:jobs.(t) ~deadline ~min_jobs
            with exn ->
              prerr_endline ("ledger: tenant loop: " ^ Printexc.to_string exn);
              crashed := true)
          ())
  in
  Array.iter Thread.join threads;
  let wall = Span.now () -. t0 in
  let journal_bytes = tree_bytes daemon.dir in
  let clean_exit = stop daemon in
  let stats = read_stats daemon.dir in
  remove_tree daemon.dir;
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  let stat k = Option.value (List.assoc_opt k stats) ~default:nan in
  let all = List.concat (Array.to_list results) in
  let ops = List.length all in
  let bad = Array.fold_left (fun n recs -> n + bad_records recs) 0 results in
  let digest =
    R.combine
      (List.concat
         (List.mapi
            (fun t recs ->
              List.filter_map
                (fun r ->
                  if r.index < digest_jobs then
                    Some (Printf.sprintf "%d/%d:%s" t r.index (R.digest_value (Result.to_option r.outcome)))
                  else None)
                recs)
            (Array.to_list results)))
  in
  let digest_ok = R.digest_ok ~workload:"daemon-tenants" ~expected digest in
  if not clean_exit then prerr_endline "ledger: the daemon did not drain cleanly";
  (* a tenant that used up its fresh specs no longer runs this workload *)
  let exhausted = Array.exists2 (fun recs js -> List.length recs >= Array.length js) results jobs in
  if exhausted then prerr_endline "ledger: a tenant ran out of jobs before the time was up";
  let sim = List.fold_left (fun a r -> match (r.job, r.outcome) with Fresh _, Ok p -> a +. accesses p | _ -> a) 0.0 all in
  let served = float_of_int (ops + List.length (warmup 0) + List.length (warmup 1)) in
  let metrics, extra, probe_failed =
    if not s.traced then
      ( R.end_to_end ~setup_s ~lat:(List.map latency all) ~wall ~accesses:sim ~rss_mb:(stat "vmhwm_kb" /. 1024.0),
        [],
        0 )
    else begin
      let traced, plain = List.partition (fun r -> R.traced_op s ~batch:block r.index) all in
      let probe_failed, layers = Probe.run (probe_inputs results.(0) ~n:(if s.smoke then 4 else 12)) in
      (* the daemon's counters cover its whole life, warm-up included *)
      let gc0 = { R.minor_words = 0.0; majors = 0; top_heap_words = 0 } in
      let gc1 =
        {
          R.minor_words = stat "minor_words";
          majors = int_of_float (stat "major_collections");
          top_heap_words = int_of_float (stat "top_heap_words");
        }
      in
      ( layers
        @ R.loop_layers ~ops:(int_of_float served)
            ~generations_per_op:(stat "trace_generations" /. served)
            ~cache_hits_per_op:(stat "memory_hits" /. served)
            ~gc0 ~gc1 ~traced_lat:(List.map latency traced) ~plain_lat:(List.map latency plain),
        service_metrics all ~journal_bytes ~served,
        probe_failed )
    end
  in
  R.outcome ~workload:"daemon-tenants" ~ops ~wall ~digest ~metrics ~extra
    ~failed:(if digest_ok && clean_exit && probe_failed = 0 && not (exhausted || !crashed) then bad else ops)
    ~counts:
      ([ ("jobs", ops); ("tenants", Array.length tenants); ("digest_jobs_per_tenant", digest_jobs) ]
      @ List.map
          (fun (name, f) -> (name, List.length (List.filter (fun r -> f r.job) all)))
          [
            ("fresh", function Fresh _ -> true | _ -> false);
            ("repeat", function Repeat _ -> true | _ -> false);
            ("compile", function Compile _ -> true | _ -> false);
          ])
