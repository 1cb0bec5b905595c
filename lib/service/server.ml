(** The sweep daemon: a long-lived single-process server accepting
    compile / compare / sweep jobs from many concurrent clients over a
    Unix-domain socket, scheduling tenants with the two-stage weighted
    round-robin of {!Scheduler}, executing one simulation cell at a time,
    and journaling both admission and completion so a kill at any instant
    loses at most the in-flight cell.

    Concurrency model: one event loop, no worker domains. Socket I/O is
    nonblocking with per-connection reassembly buffers (a hung client
    parks half a frame forever without blocking anyone; a slow reader
    that lets its output buffer hit the cap is dropped). Simulation cells
    run inline between pump passes — the cell is the unit of latency, and
    admission, progress streaming and backpressure stay responsive at
    cell granularity. This keeps the daemon fork-safe and deterministic:
    results are bit-identical to a sequential [hscd experiment] run by
    construction, because they are produced by the same calls in the same
    per-job order.

    Crash-safety:
    - [state_dir/jobs.jnl] ({!Hscd_util.Journal}, [HSCDJNL1]): one
      [accept|digest] record per admitted job (written {e before} the
      [Accepted] reply — durable once acknowledged), one [done|digest]
      record per finished job (written before the [Done] reply).
    - [state_dir/job-<digest>.jnl]: one record per completed cell of the
      running job (the marshalled engine result keyed by cell name).
    - On restart: accepted-but-not-done jobs re-enqueue in admission
      order (bypassing capacity — they were admitted once), and a resumed
      job replays only its missing cells, bit-identically.
    - On SIGTERM/SIGINT ({!request_drain}): stop admitting ([Busy]
      replies), finish the in-flight cell, checkpoint, exit cleanly. *)

module E = Hscd_util.Hscd_error
module Journal = Hscd_util.Journal
module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Perfect = Hscd_workloads.Perfect
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

type plan =
  | Cells_plan of {
      keys : string array;
      run : int -> (Engine.result, E.t) result;
    }
  | Compile_plan of (unit -> (P.payload, E.t) result)

type running = {
  job : job;
  keys : string array;
  run_cell : int -> (Engine.result, E.t) result;
  results : Engine.result option array;
  mutable finished : int;
  cjournal : Journal.t;
  cpath : string;
}

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
  done_tbl : (string, P.payload) Hashtbl.t;
  subs : (string, int list) Hashtbl.t;  (* digest -> subscriber conn ids *)
  mutable running : running option;
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

let find_target name =
  match Perfect.find name with
  | Some e -> Some (`Perfect e)
  | None -> (
    match List.assoc_opt (String.lowercase_ascii name) Hscd_workloads.Kernels.all with
    | Some b -> Some (`Kernel b)
    | None -> None)

let build_target target ~small =
  match find_target target with
  | Some (`Perfect e) -> if small then e.Perfect.build_small () else e.Perfect.build ()
  | Some (`Kernel b) -> b ()
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
  let check_target t = if find_target t = None then Error ("unknown target " ^ t) else Ok () in
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

(* Cells compile through {!Run.compile}'s shared cache (in-memory +
   optional on-disk), so overlapping jobs from different tenants
   regenerate each reference stream exactly once per daemon. A transient
   cell failure is retried inline a couple of times; the supervised-pool
   policy machinery stays with multi-domain sweeps. *)
let rec with_retries n f =
  match f () with
  | Ok _ as ok -> ok
  | Error e when n > 0 && E.transient e -> with_retries (n - 1) f
  | Error _ as err -> err

let cell_retries = 2

let plan_of_spec (spec : P.job_spec) : plan =
  match spec with
  | P.Compile { target; cfg; small } ->
    Compile_plan
      (fun () ->
        let cfg = P.config_of_spec cfg in
        match Run.compile_result ~cfg ~intertask:true (build_target target ~small) with
        | Error _ as e -> e
        | Ok c ->
          Ok
            (P.Compiled
               {
                 target;
                 epochs = Hscd_sim.Trace.packed_n_epochs c.Run.packed_trace;
                 events = c.Run.packed_trace.Hscd_sim.Trace.p_total_events;
               }))
  | P.Compare { target; schemes; cfg; small } ->
    let kinds = match parse_schemes schemes with Ok ks -> ks | Error m -> E.fail E.Rejected "%s" m in
    let cfg = P.config_of_spec cfg in
    let keys =
      Array.of_list (List.map (fun k -> target ^ "/" ^ Run.scheme_name k) kinds)
    in
    let kinds = Array.of_list kinds in
    let compiled =
      lazy (Run.compile_result ~cfg ~intertask:true (build_target target ~small))
    in
    Cells_plan
      {
        keys;
        run =
          (fun i ->
            match Lazy.force compiled with
            | Error _ as e -> e
            | Ok c ->
              with_retries cell_retries (fun () ->
                  Run.simulate_packed_result ~cfg kinds.(i) c.Run.packed_trace));
      }
  | P.Sweep { schemes; cfg; small } ->
    let kinds = match parse_schemes schemes with Ok ks -> ks | Error m -> E.fail E.Rejected "%s" m in
    let cfg = P.config_of_spec cfg in
    let benches = List.map (fun (e : Perfect.entry) -> e.Perfect.name) Perfect.all in
    let grid =
      List.concat_map (fun b -> List.map (fun k -> (b, k)) kinds) benches |> Array.of_list
    in
    let keys = Array.map (fun (b, k) -> b ^ "/" ^ Run.scheme_name k) grid in
    let compiled : (string, (Run.compiled, E.t) result) Hashtbl.t = Hashtbl.create 8 in
    let compile b =
      match Hashtbl.find_opt compiled b with
      | Some r -> r
      | None ->
        let r = Run.compile_result ~cfg ~intertask:true (build_target b ~small) in
        Hashtbl.replace compiled b r;
        r
    in
    Cells_plan
      {
        keys;
        run =
          (fun i ->
            let b, k = grid.(i) in
            match compile b with
            | Error _ as e -> e
            | Ok c ->
              with_retries cell_retries (fun () ->
                  Run.simulate_packed_result ~cfg k c.Run.packed_trace));
      }

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

let handle_submit st c ~digest ~(spec : P.job_spec) =
  (* the digest is the job's identity — recompute rather than trust *)
  let digest' = P.job_digest spec in
  if digest <> digest' then
    send st c (P.Rejected_reply { digest; reason = "digest does not match spec" })
  else if Hashtbl.mem st.done_tbl digest then
    send st c (P.Done { digest; payload = Hashtbl.find st.done_tbl digest })
  else if Hashtbl.mem st.accepted digest then begin
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
            Journal.append st.journal ~key:(accept_key digest)
              (Marshal.to_string (tenant, spec) []);
            Hashtbl.replace st.accepted digest job;
            subscribe st digest c;
            send st c (P.Accepted { digest; position })))

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

let fail_job st (job : job) err =
  (* a permanent failure is replied, not journaled as done: a later
     resubmission of the same digest re-attempts it from its journal *)
  broadcast st job.digest (P.Failed { digest = job.digest; error = err });
  clear_subs st job.digest;
  Hashtbl.remove st.accepted job.digest

let finish_job st (r : running) =
  let cells =
    Array.to_list
      (Array.mapi
         (fun i res ->
           match res with
           | Some result -> { P.cell = r.keys.(i); result }
           | None -> E.fail E.Internal "finish_job: missing cell %s" r.keys.(i))
         r.results)
  in
  let payload = P.Cells cells in
  Journal.append st.journal ~key:(done_key r.job.digest) (Marshal.to_string (payload : P.payload) []);
  Hashtbl.replace st.done_tbl r.job.digest payload;
  Hashtbl.remove st.accepted r.job.digest;
  broadcast st r.job.digest (P.Done { digest = r.job.digest; payload });
  clear_subs st r.job.digest;
  Journal.close r.cjournal;
  (* the per-cell journal is subsumed by the durable done record *)
  (try Sys.remove r.cpath with Sys_error _ -> ());
  st.running <- None

let finish_compile st (job : job) payload =
  Journal.append st.journal ~key:(done_key job.digest) (Marshal.to_string (payload : P.payload) []);
  Hashtbl.replace st.done_tbl job.digest payload;
  Hashtbl.remove st.accepted job.digest;
  broadcast st job.digest (P.Done { digest = job.digest; payload });
  clear_subs st job.digest

let start_job st (job : job) =
  match plan_of_spec job.spec with
  | Compile_plan run -> (
    match run () with
    | Ok payload -> finish_compile st job payload
    | Error e -> fail_job st job e)
  | Cells_plan { keys; run } -> (
    let cpath = job_journal_path st job.digest in
    match Journal.open_append cpath with
    | Error e -> fail_job st job (E.add_context "cell journal" e)
    | Ok cjournal ->
      let results = Array.make (Array.length keys) None in
      let finished = ref 0 in
      (* resume: cells journaled before a kill replay from disk, not from
         the simulator — bit-identical because the payload is the
         marshalled engine result itself *)
      let index = Hashtbl.create 16 in
      Array.iteri (fun i k -> Hashtbl.replace index k i) keys;
      List.iter
        (fun (k, payload) ->
          match Hashtbl.find_opt index k with
          | Some i when results.(i) = None -> (
            match Run.decode_result payload with
            | Some r ->
              results.(i) <- Some r;
              incr finished
            | None -> ())
          | _ -> ())
        (Journal.entries cjournal);
      st.running <-
        Some { job; keys; run_cell = run; results; finished = !finished; cjournal; cpath })
  | exception E.Error e -> fail_job st job e
  | exception exn -> fail_job st job (E.of_exn exn)

let step_cell st (r : running) =
  let n = Array.length r.keys in
  let rec first_missing i = if i >= n then None else if r.results.(i) = None then Some i else first_missing (i + 1) in
  match first_missing 0 with
  | None -> finish_job st r
  | Some i -> (
    match r.run_cell i with
    | Ok res ->
      r.results.(i) <- Some res;
      r.finished <- r.finished + 1;
      Journal.append r.cjournal ~key:r.keys.(i) (Run.encode_result res);
      broadcast st r.job.digest
        (P.Progress { digest = r.job.digest; cell = r.keys.(i); finished = r.finished; total = n });
      if r.finished = n then finish_job st r
    | Error e ->
      Journal.close r.cjournal;
      st.running <- None;
      fail_job st r.job (E.add_context ("cell " ^ r.keys.(i)) e))

(* ---- recovery ---- *)

let recover st =
  let accepts = ref [] in
  List.iter
    (fun (key, payload) ->
      match record_kind key with
      | "accept", digest -> (
        match (Marshal.from_string payload 0 : string * P.job_spec) with
        | tenant, spec ->
          if not (List.mem_assoc digest !accepts) then
            accepts := (digest, { digest; tenant; spec }) :: !accepts
        | exception _ -> ())
      | "done", digest -> (
        match (Marshal.from_string payload 0 : P.payload) with
        | payload -> Hashtbl.replace st.done_tbl digest payload
        | exception _ -> ())
      | _ -> ())
    (Journal.entries st.journal);
  (* re-enqueue unfinished jobs in admission order, bypassing capacity:
     they were admitted once and must survive the restart *)
  List.iter
    (fun (digest, job) ->
      if not (Hashtbl.mem st.done_tbl digest) then begin
        Hashtbl.replace st.accepted digest job;
        Scheduler.force st.sched ~tenant:job.tenant job
      end)
    (List.rev !accepts)

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
  (match st.running with
  | Some r -> Journal.close r.cjournal (* cells so far are checkpointed *)
  | None -> ());
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
    let journal = E.get_exn (Journal.open_append (Filename.concat settings.state_dir "jobs.jnl")) in
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
        done_tbl = Hashtbl.create 16;
        subs = Hashtbl.create 16;
        running = None;
        next_id = 0;
      }
    in
    recover st;
    on_ready ();
    let rec loop () =
      if draining () then ()
      else begin
        (match st.running with
        | Some r ->
          step_cell st r;
          pump st 0.0
        | None -> (
          match Scheduler.next st.sched with
          | Some (_tenant, job) -> start_job st job
          | None -> pump st 0.25));
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> shutdown st) loop
  in
  E.guard ~default:E.Io ~context:"serve" attempt
