(** Client side of the sweep service: blocking socket, bounded
    exponential reconnect backoff, and idempotent resubmission by job
    digest — a killed-and-restarted daemon looks like one transient [Io]
    hiccup, after which the same digest resumes the same job from its
    journal. *)

module E = Hscd_util.Hscd_error
module P = Protocol

type t = {
  fd : Unix.file_descr;
  dec : P.decoder;
  tenant : string;
}

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ---- low-level framed I/O (blocking) ---- *)

let send_frame t s =
  match
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring t.fd s !off (n - !off)
    done
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    E.error E.Io "service write: %s" (Unix.error_message e)

let recv_response t : (P.response, E.t) result =
  let buf = Bytes.create 65536 in
  let rec go () =
    match P.next_frame t.dec with
    | Ok (Some payload) -> P.parse_response payload
    | Error _ as e -> e
    | Ok None -> (
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | 0 -> E.error E.Io "service connection closed"
      | n ->
        P.feed t.dec buf 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) ->
        E.error E.Io "service read: %s" (Unix.error_message e))
  in
  go ()

let request t req =
  match send_frame t (P.encode_request req) with
  | Error _ as e -> e
  | Ok () -> recv_response t

(* ---- connection with bounded exponential backoff ---- *)

let connect_once ~socket ~tenant =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    let t = { fd; dec = P.decoder (); tenant } in
    match request t (P.Hello { version = P.version; tenant }) with
    | Ok (P.Hello_ok _) -> Ok t
    | Ok (P.Hello_reject { server_version }) ->
      close t;
      E.error E.Rejected "server speaks protocol v%d, client v%d" server_version P.version
    | Ok _ ->
      close t;
      E.error E.Corrupt "unexpected reply to Hello"
    | Error e ->
      close t;
      Error e
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    E.error E.Io "connect %s: %s" socket (Unix.error_message e)

(* retry budget and delay before retry [i]: 8 attempts, exponential
   from 50 ms, capped at 2 s *)
let attempts = 8
let backoff i = Unix.sleepf (Float.min 2.0 (0.05 *. (2.0 ** float_of_int i)))

(** [connect ~socket ~tenant ()] dials the daemon, retrying transient
    failures (daemon not up yet, daemon restarting) with the bounded
    exponential backoff above. [Rejected] (version mismatch) is
    immediate — retrying cannot help. *)
let connect ~socket ~tenant () =
  let rec go i =
    match connect_once ~socket ~tenant with
    | Ok _ as ok -> ok
    | Error e when i + 1 < attempts && E.transient e ->
      backoff i;
      go (i + 1)
    | Error _ as err -> err
  in
  go 0

(* ---- submit / await ---- *)

type ticket =
  | Queued of int  (** accepted; jobs ahead in the tenant queue *)
  | Finished of P.payload  (** the daemon already had the result *)

(** Submit a job spec; the digest is computed here and is the job's
    identity for dedup, resume and resubmission. [Busy_reply] and
    [Rejected_reply] come back as typed errors (kinds [Busy] /
    [Rejected]) so exit codes and retry policy fall out mechanically. *)
let submit t (spec : P.job_spec) : (string * ticket, E.t) result =
  let digest = P.job_digest spec in
  match request t (P.Submit { digest; spec }) with
  | Ok (P.Accepted { position; _ }) -> Ok (digest, Queued position)
  | Ok (P.Done { payload; _ }) -> Ok (digest, Finished payload)
  | Ok (P.Busy_reply { reason; _ }) -> E.error E.Busy "%s" reason
  | Ok (P.Rejected_reply { reason; _ }) -> E.error E.Rejected "%s" reason
  | Ok (P.Failed { error; _ }) -> Error error
  | Ok _ -> E.error E.Corrupt "unexpected reply to Submit"
  | Error _ as e -> e

(** Block until the job completes, streaming [Progress] frames to
    [on_progress]. An [Io] error here usually means the daemon died —
    callers that want crash transparency use {!run_job}. *)
let await ?(on_progress = fun ~cell:_ ~finished:_ ~total:_ -> ()) t ~digest =
  let rec go () =
    match recv_response t with
    | Ok (P.Progress { digest = d; cell; finished; total }) when d = digest ->
      on_progress ~cell ~finished ~total;
      go ()
    | Ok (P.Done { digest = d; payload }) when d = digest -> Ok payload
    | Ok (P.Failed { digest = d; error }) when d = digest -> Error error
    | Ok _ -> go () (* a frame about some other digest: not ours *)
    | Error _ as e -> e
  in
  go ()

(** Submit and wait, reconnecting and idempotently resubmitting by digest
    across daemon restarts and retrying [Busy] backpressure, with the
    budget and backoff of {!connect}. [Rejected] is returned
    immediately. *)
let run_job ?on_progress ~socket ~tenant spec =
  let rec cycle i =
    let retry e =
      if i + 1 < attempts then begin
        backoff i;
        cycle (i + 1)
      end
      else Error e
    in
    match connect ~socket ~tenant () with
    | Error e when E.transient e -> retry e
    | Error _ as err -> err
    | Ok t ->
      let r =
        match submit t spec with
        | Ok (_, Finished payload) -> Ok payload
        | Ok (digest, Queued _) -> await ?on_progress t ~digest
        | Error _ as e -> e
      in
      close t;
      (match r with
      | Error e when E.transient e -> retry e (* daemon died or Busy: back off, resubmit *)
      | r -> r)
  in
  cycle 0
