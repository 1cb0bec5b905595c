(** The sweep daemon: a long-lived single-process server accepting
    compile / compare / sweep jobs from many concurrent clients over a
    Unix-domain socket, scheduling tenants with the two-stage weighted
    round-robin of {!Scheduler}, executing one simulation cell at a time,
    and journaling both admission and completion so a kill at any instant
    loses at most the in-flight cell.

    Compare and sweep jobs run through {!Hscd_sim.Run.run_cells}, the
    journaled cell runner of [hscd compare] and [hscd experiment], on one
    domain and with the same retry policy; a job stops at its first
    failed cell.

    Concurrency model: one event loop, no worker domains. Socket I/O is
    nonblocking with per-connection reassembly buffers (a hung client
    parks half a frame forever without blocking anyone; a slow reader
    that lets its output buffer hit the cap is dropped). Simulation cells
    run inline between pump passes — the cell is the unit of latency, and
    admission, progress streaming and backpressure stay responsive at
    cell granularity (the runner's [on_done] hook streams [Progress] and
    pumps the sockets). This keeps the daemon fork-safe and deterministic:
    results are bit-identical to a sequential [hscd experiment] run by
    construction, because they are produced by the same calls in the same
    per-job order.

    Crash-safety:
    - [state_dir/jobs.jnl] ({!Hscd_util.Journal}, [HSCDJNL1]): one
      [accept|digest] record per admitted job (written {e before} the
      [Accepted] reply — durable once acknowledged), one [done|digest]
      record per finished job (written before the [Done] reply). The
      daemon keeps only the offset of each [done] record: a repeat
      submission is answered by reading that record back, checksum
      checked, and a record that fails the check or does not unmarshal
      is never served — the job runs again, bit-identically.
    - [state_dir/job-<digest>.jnl]: the running job's {!Hscd_sim.Run.run_cells}
      checkpoint, one record per completed cell (the marshalled engine
      result keyed by cell name, [bench/SCHEME]); removed once the job's
      [done] record is written.
    - On restart: accepted-but-not-done jobs re-enqueue in admission
      order (bypassing capacity — they were admitted once), and a resumed
      job replays only its missing cells, bit-identically. [done]
      records are indexed by offset, not unmarshalled.
    - On SIGTERM/SIGINT ({!request_drain}): stop admitting ([Busy]
      replies), finish the in-flight cell, checkpoint, exit cleanly. A
      cell that would start after the request refuses to run; the
      interrupted job gets no [Failed] reply and stays accepted, to
      resume from its journal on restart. *)

module E = Hscd_util.Hscd_error
module Journal = Hscd_util.Journal
module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Pool = Hscd_util.Pool
module Perfect = Hscd_workloads.Perfect
module Programs = Hscd_workloads.Programs
module P = Protocol

type settings = {
  socket : string;  (** Unix-domain socket path *)
  state_dir : string;  (** journals live here *)
  tenants : (string * Scheduler.config) list;  (** declared tenants *)
  strict : bool;  (** refuse undeclared tenants *)
  default_tenant : Scheduler.config;  (** auto-registration config *)
  max_pending : int;  (** global queued-job cap (admission [Busy]) *)
  out_cap : int;  (** per-connection output-buffer cap in bytes *)
}

let default_settings ~socket ~state_dir =
  {
    socket;
    state_dir;
    tenants = [];
    strict = false;
    default_tenant = Scheduler.default_config;
    max_pending = 256;
    out_cap = 16 * 1024 * 1024;
  }

(* ---- drain control (signal-safe: a single atomic flag) ---- *)

let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let draining () = Atomic.get drain_flag
let reset_drain_for_testing () = Atomic.set drain_flag false

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> request_drain ()) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* ---- state ---- *)

type job = { digest : string; tenant : string; spec : P.job_spec }

type conn = {
  id : int;
  fd : Unix.file_descr;
  dec : P.decoder;
  out : Buffer.t;
  mutable out_off : int;
  mutable tenant : string option;  (* set by Hello *)
  mutable alive : bool;
}

type t = {
  settings : settings;
  listen_fd : Unix.file_descr;
  journal : Journal.t;
  sched : job Scheduler.t;
  mutable conns : conn list;
  by_id : (int, conn) Hashtbl.t;
  accepted : (string, job) Hashtbl.t;  (* queued or running *)
  done_at : (string, int) Hashtbl.t;  (* digest -> offset of its [done] record *)
  subs : (string, int list) Hashtbl.t;  (* digest -> subscriber conn ids *)
  mutable next_id : int;
}

(* ---- journal records ---- *)

let accept_key digest = "accept|" ^ digest
let done_key digest = "done|" ^ digest

let record_kind key =
  match String.index_opt key '|' with
  | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> ("", key)

let job_journal_path st digest = Filename.concat st.settings.state_dir ("job-" ^ digest ^ ".jnl")

(* ---- job validation and planning ---- *)

let build_target target ~small =
  match Programs.find ~small target with
  | Some build -> build ()
  | None -> E.fail E.Usage "unknown target %s" target

let parse_schemes names =
  if names = [] then Error "no schemes requested"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Run.scheme_of_name n with
        | Ok k -> go (k :: acc) rest
        | Error e -> Error (E.to_string e))
    in
    go [] names

let check_cfg (c : P.cfg_spec) =
  match Config.validate (P.config_of_spec c) with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error m
  | exception _ -> Error "invalid configuration"

(** Admission-time validation: everything that makes a job unservable is
    detected here, so the refusal is an immediate typed [Rejected] rather
    than a deferred [Failed]. *)
let validate_spec (spec : P.job_spec) =
  let check_target t = if Programs.find t = None then Error ("unknown target " ^ t) else Ok () in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match spec with
  | P.Compile { target; cfg; _ } -> check_target target >>= fun () -> check_cfg cfg
  | P.Compare { target; schemes; cfg; _ } ->
    check_target target >>= fun () ->
    (match parse_schemes schemes with Ok _ -> Ok () | Error m -> Error m) >>= fun () ->
    check_cfg cfg
  | P.Sweep { schemes; cfg; _ } ->
    (match parse_schemes schemes with Ok _ -> Ok () | Error m -> Error m) >>= fun () ->
    check_cfg cfg

(* ---- connection I/O ---- *)

let send st c (resp : P.response) =
  if c.alive then begin
    Buffer.add_string c.out (P.encode_response resp);
    if Buffer.length c.out - c.out_off > st.settings.out_cap then
      (* slow consumer: dropping it beats unbounded buffering; the client
         reconnects and resubmits by digest *)
      c.alive <- false
  end

let flush_conn c =
  if c.alive && Buffer.length c.out > c.out_off then begin
    let s = Buffer.contents c.out in
    match Unix.write_substring c.fd s c.out_off (String.length s - c.out_off) with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = String.length s then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.alive <- false
  end

let subscribe st digest c =
  let cur = Option.value (Hashtbl.find_opt st.subs digest) ~default:[] in
  if not (List.mem c.id cur) then Hashtbl.replace st.subs digest (c.id :: cur)

let broadcast st digest resp =
  match Hashtbl.find_opt st.subs digest with
  | None -> ()
  | Some ids ->
    List.iter
      (fun id ->
        match Hashtbl.find_opt st.by_id id with
        | Some c when c.alive ->
          send st c resp;
          flush_conn c
        | _ -> ())
      ids

let clear_subs st digest = Hashtbl.remove st.subs digest

(* ---- request handling ---- *)

let queue_position st (job : job) =
  (* jobs ahead of it within its tenant: the freshly queued job sits last *)
  max 0 (Scheduler.tenant_pending st.sched job.tenant - 1)

(* The finished payload of [digest], read back from its [done] record. A
   record that fails its checksum or does not unmarshal is dropped from
   the index, so the job is admitted as new and runs again. *)
let done_payload st digest =
  Option.bind (Hashtbl.find_opt st.done_at digest) @@ fun offset ->
  let payload =
    match Journal.read st.journal offset with
    | Ok (key, payload) when key = done_key digest -> (
      match (Marshal.from_string payload 0 : P.payload) with p -> Some p | exception _ -> None)
    | Ok _ | Error _ -> None
  in
  if Option.is_none payload then Hashtbl.remove st.done_at digest;
  payload

(* A submission that has no finished payload: attach to the queued or
   running job, or admit it as new. *)
let admit st c ~digest ~(spec : P.job_spec) =
  if Hashtbl.mem st.accepted digest then begin
    (* duplicate (another client, or an idempotent resubmit after a
       reconnect): attach, don't re-execute *)
    subscribe st digest c;
    send st c (P.Accepted { digest; position = queue_position st (Hashtbl.find st.accepted digest) })
  end
  else if draining () then send st c (P.Busy_reply { digest; reason = "draining" })
  else
    match c.tenant with
    | None -> c.alive <- false (* Submit before Hello: protocol violation *)
    | Some tenant -> (
      match validate_spec spec with
      | Error reason -> send st c (P.Rejected_reply { digest; reason })
      | Ok () ->
        if Scheduler.pending st.sched >= st.settings.max_pending then
          send st c (P.Busy_reply { digest; reason = "service queue full" })
        else
          let job = { digest; tenant; spec } in
          (match Scheduler.submit st.sched ~tenant job with
          | `Rejected reason -> send st c (P.Rejected_reply { digest; reason })
          | `Busy reason -> send st c (P.Busy_reply { digest; reason })
          | `Queued position ->
            (* durable before acknowledged: a crash between the reply and
               the journal write must not lose an accepted job *)
            ignore (Journal.append st.journal ~key:(accept_key digest) (Marshal.to_string (tenant, spec) []));
            Hashtbl.replace st.accepted digest job;
            subscribe st digest c;
            send st c (P.Accepted { digest; position })))

let handle_submit st c ~digest ~(spec : P.job_spec) =
  (* the digest is the job's identity — recompute rather than trust *)
  let digest' = P.job_digest spec in
  if digest <> digest' then
    send st c (P.Rejected_reply { digest; reason = "digest does not match spec" })
  else
    match done_payload st digest with
    | Some payload -> send st c (P.Done { digest; payload })
    | None -> admit st c ~digest ~spec

let handle_request st c (req : P.request) =
  match req with
  | P.Hello { version; tenant } ->
    if version <> P.version then begin
      send st c (P.Hello_reject { server_version = P.version });
      flush_conn c;
      c.alive <- false
    end
    else begin
      c.tenant <- Some tenant;
      send st c (P.Hello_ok { version = P.version })
    end
  | P.Submit { digest; spec } -> handle_submit st c ~digest ~spec
  | P.Ping -> send st c P.Pong

let handle_read st c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> c.alive <- false
  | n ->
    P.feed c.dec buf 0 n;
    let rec drain_frames () =
      if c.alive then
        match P.next_frame c.dec with
        | Ok None -> ()
        | Ok (Some payload) -> (
          match P.parse_request payload with
          | Ok req ->
            handle_request st c req;
            drain_frames ()
          | Error _ -> c.alive <- false)
        | Error _ ->
          (* corrupt framing (e.g. a flipped bit): beyond resync — drop;
             the client treats the closed socket as transient Io *)
          c.alive <- false
    in
    drain_frames ();
    (* answer admission immediately — the next pump pass may be a whole
       simulation cell away *)
    flush_conn c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> c.alive <- false

let accept_new st =
  let rec go () =
    match Unix.accept st.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let c =
        {
          id = st.next_id;
          fd;
          dec = P.decoder ();
          out = Buffer.create 1024;
          out_off = 0;
          tenant = None;
          alive = true;
        }
      in
      st.next_id <- st.next_id + 1;
      st.conns <- c :: st.conns;
      Hashtbl.replace st.by_id c.id c;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let reap st =
  let dead, live = List.partition (fun c -> not c.alive) st.conns in
  List.iter
    (fun c ->
      Hashtbl.remove st.by_id c.id;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    dead;
  st.conns <- live

let pump st timeout =
  let reads = st.listen_fd :: List.map (fun c -> c.fd) st.conns in
  let writes =
    List.filter_map
      (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
      st.conns
  in
  (match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    if List.mem st.listen_fd readable then accept_new st;
    List.iter (fun c -> if List.mem c.fd readable then handle_read st c) st.conns;
    List.iter (fun c -> if List.mem c.fd writable then flush_conn c) st.conns);
  reap st

(* ---- job execution ---- *)

(* A compare or sweep job is the cells [bench/SCHEME] of
   {!Run.run_cells}, journaled in [job-<digest>.jnl] under those names.
   Cells compile through {!Run.compile}'s shared in-memory cache, so
   overlapping jobs from different tenants regenerate each reference
   stream exactly once per daemon; each benchmark compiles on its first
   cell, so the sockets are served between compiles too. The first
   failed cell stops the job. *)
let run_grid st (job : job) ~cfg ~small benches schemes =
  let kinds = match parse_schemes schemes with Ok ks -> ks | Error m -> E.fail E.Rejected "%s" m in
  let cfg = P.config_of_spec cfg in
  let cells = List.concat_map (fun b -> List.map (fun k -> (b, k)) kinds) benches in
  let total = List.length cells in
  let key (b, k) = b ^ "/" ^ Run.scheme_name k in
  let compiled = Hashtbl.create 8 in
  let compile b =
    match Hashtbl.find_opt compiled b with
    | Some c -> c
    | None ->
      let c = E.get_exn (Run.compile_result ~cfg ~intertask:true (build_target b ~small)) in
      Hashtbl.replace compiled b c;
      c
  in
  Run.run_cells ~jobs:1
    ~policy:{ Pool.default_policy with keep_going = false }
    ~checkpoint:(job_journal_path st job.digest)
    ~on_done:(fun ~finished cell ->
      broadcast st job.digest (P.Progress { digest = job.digest; cell = key cell; finished; total });
      (* the last cell's Done goes out before the sockets are served *)
      if finished < total then pump st 0.0)
    ~key
    ~label:(fun c -> "cell " ^ key c)
    (fun (b, k) ->
      if draining () then E.fail E.Busy "draining";
      Run.simulate_packed ~cfg k (compile b).Run.packed_trace)
    cells
  |> Result.map (fun results ->
         P.Cells (List.map2 (fun c result -> { P.cell = key c; result }) cells results))

let run_job st (job : job) =
  match job.spec with
  | P.Compile { target; cfg; small } ->
    let cfg = P.config_of_spec cfg in
    Run.compile_result ~cfg ~intertask:true (build_target target ~small)
    |> Result.map (fun (c : Run.compiled) ->
           P.Compiled
             {
               target;
               epochs = Hscd_sim.Trace.packed_n_epochs c.packed_trace;
               events = c.packed_trace.Hscd_sim.Trace.p_total_events;
             })
  | P.Compare { target; schemes; cfg; small } -> run_grid st job ~cfg ~small [ target ] schemes
  | P.Sweep { schemes; cfg; small } -> run_grid st job ~cfg ~small Perfect.names schemes

let fail_job st (job : job) err =
  (* a permanent failure is replied, not journaled as done: a later
     resubmission of the same digest re-attempts it from its journal *)
  broadcast st job.digest (P.Failed { digest = job.digest; error = err });
  clear_subs st job.digest;
  Hashtbl.remove st.accepted job.digest

let finish_job st (job : job) payload =
  let offset = Journal.append st.journal ~key:(done_key job.digest) (Marshal.to_string (payload : P.payload) []) in
  Hashtbl.replace st.done_at job.digest offset;
  Hashtbl.remove st.accepted job.digest;
  broadcast st job.digest (P.Done { digest = job.digest; payload });
  clear_subs st job.digest;
  (* a job journal is subsumed by the durable done record *)
  try Sys.remove (job_journal_path st job.digest) with Sys_error _ -> ()

let execute st (job : job) =
  match Result.join (E.guard (fun () -> run_job st job)) with
  | Ok payload -> finish_job st job payload
  | Error _ when draining () ->
    (* interrupted, not failed: the job stays accepted in [jobs.jnl] and
       resumes from its journal on restart *)
    ()
  | Error e -> fail_job st job e

(* ---- recovery ---- *)

let recover st records =
  List.iter
    (fun { Journal.key; offset; _ } ->
      match record_kind key with "done", digest -> Hashtbl.replace st.done_at digest offset | _ -> ())
    records;
  (* re-enqueue unfinished jobs in admission order (a digest's first
     decodable [accept] record), bypassing capacity: they were admitted
     once and must survive the restart *)
  List.iter
    (fun { Journal.key; payload; _ } ->
      match record_kind key with
      | "accept", digest when not (Hashtbl.mem st.done_at digest || Hashtbl.mem st.accepted digest) -> (
        match (Marshal.from_string payload 0 : string * P.job_spec) with
        | tenant, spec ->
          let job = { digest; tenant; spec } in
          Hashtbl.replace st.accepted digest job;
          Scheduler.force st.sched ~tenant job
        | exception _ -> ())
      | _ -> ())
    records

(* ---- lifecycle ---- *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let shutdown st =
  List.iter (fun c -> flush_conn c) st.conns;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  Journal.close st.journal;
  try Sys.remove st.settings.socket with Sys_error _ -> ()

(** Run the daemon until a drain is requested ({!request_drain}, usually
    from a SIGTERM/SIGINT handler). Returns [Ok ()] after a graceful
    drain: admission stopped, in-flight cell finished and checkpointed,
    connections closed, socket unlinked. *)
let serve ?(on_ready = fun () -> ()) settings =
  let attempt () =
    mkdir_p settings.state_dir;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let journal, records = E.get_exn (Journal.open_append (Filename.concat settings.state_dir "jobs.jnl")) in
    let sched = Scheduler.create ~strict:settings.strict ~default:settings.default_tenant () in
    List.iter (fun (name, cfg) -> Scheduler.add_tenant sched ~name cfg) settings.tenants;
    if Sys.file_exists settings.socket then Sys.remove settings.socket;
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind listen_fd (Unix.ADDR_UNIX settings.socket);
       Unix.listen listen_fd 64;
       Unix.set_nonblock listen_fd
     with exn ->
       (try Unix.close listen_fd with Unix.Unix_error _ -> ());
       raise exn);
    let st =
      {
        settings;
        listen_fd;
        journal;
        sched;
        conns = [];
        by_id = Hashtbl.create 16;
        accepted = Hashtbl.create 16;
        done_at = Hashtbl.create 16;
        subs = Hashtbl.create 16;
        next_id = 0;
      }
    in
    recover st records;
    on_ready ();
    let rec loop () =
      if draining () then ()
      else begin
        (match Scheduler.next st.sched with
        | Some (_tenant, job) ->
          execute st job;
          pump st 0.0
        | None -> pump st 0.25);
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> shutdown st) loop
  in
  E.guard ~default:E.Io ~context:"serve" attempt
