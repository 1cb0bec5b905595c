(** Wire protocol of the sweep service: length-prefixed, versioned,
    checksummed frames over a Unix-domain stream socket, carrying typed
    request/response messages.

    Framing (all integers 8-byte little-endian, the {!Trace_io}/
    {!Hscd_util.Journal} idiom):

    {v
    magic "HSCDFRM1"
    payload length n          (bounded by max_frame)
    checksum                  (avalanche fold over length + payload bytes)
    n payload bytes           (Marshal of request / response)
    v}

    A frame that fails any of magic, length-plausibility or checksum is a
    typed [Corrupt] error — a flipped bit on the wire is rejected before
    the payload is unmarshalled, and the connection is dropped rather than
    resynchronized (the client reconnects and idempotently resubmits by
    job digest). Protocol versioning rides in the [Hello] exchange, not in
    every frame: a server that cannot speak the client's version says so
    in a typed reply and closes. *)

module E = Hscd_util.Hscd_error

let magic = "HSCDFRM1"
let version = 1

(** Upper bound on one frame's payload (a [Done] carrying a full sweep's
    marshalled engine results is ~100 KiB; 64 MiB is headroom, not a
    target). A corrupted length field decodes as garbage — the bound
    rejects it before any allocation. *)
let max_frame = 64 * 1024 * 1024

let header_bytes = 24 (* magic + length + checksum *)

let frame_sum payload =
  Hscd_util.Checksum.(sum_string (mix 0 (String.length payload)) payload)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(** The timing-side knobs a job may vary; everything else is
    {!Hscd_arch.Config.default}. *)
type cfg_spec = { processors : int; line_words : int; timetag_bits : int }

let default_cfg_spec =
  {
    processors = Hscd_arch.Config.default.Hscd_arch.Config.processors;
    line_words = Hscd_arch.Config.default.Hscd_arch.Config.line_words;
    timetag_bits = Hscd_arch.Config.default.Hscd_arch.Config.timetag_bits;
  }

let config_of_spec (s : cfg_spec) =
  {
    Hscd_arch.Config.default with
    Hscd_arch.Config.processors = s.processors;
    line_words = s.line_words;
    timetag_bits = s.timetag_bits;
  }

type job_spec =
  | Compile of { target : string; cfg : cfg_spec; small : bool }
      (** compile [target] (benchmark/kernel name), return trace shape *)
  | Compare of { target : string; schemes : string list; cfg : cfg_spec; small : bool }
      (** one bench, each scheme on the identical reference stream *)
  | Sweep of { schemes : string list; cfg : cfg_spec; small : bool }
      (** all six Perfect Club models × [schemes] — the [hscd experiment]
          grid, served a cell at a time *)

(** Stable identity of a job: the digest of its marshalled spec. Two
    clients submitting the same spec share one execution and one journal
    entry; a reconnecting client resubmits the digest idempotently. *)
let job_digest (spec : job_spec) =
  Digest.to_hex (Digest.string (Marshal.to_string (spec : job_spec) []))

type cell = { cell : string; result : Hscd_sim.Engine.result }

type payload =
  | Cells of cell list  (** compare / sweep results, plan order *)
  | Compiled of { target : string; epochs : int; events : int }

type request =
  | Hello of { version : int; tenant : string }
  | Submit of { digest : string; spec : job_spec }
  | Ping

type response =
  | Hello_ok of { version : int }
  | Hello_reject of { server_version : int }
  | Accepted of { digest : string; position : int }
      (** admitted; [position] = jobs queued ahead within the tenant *)
  | Busy_reply of { digest : string; reason : string }
      (** backpressure: bounded queue full or draining — retryable *)
  | Rejected_reply of { digest : string; reason : string }
      (** policy refusal: unknown tenant, over quota, invalid job *)
  | Progress of { digest : string; cell : string; finished : int; total : int }
  | Done of { digest : string; payload : payload }
  | Failed of { digest : string; error : E.t }
  | Pong

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let n = String.length payload in
  if n > max_frame then E.fail E.Internal "Protocol: frame payload %d exceeds max_frame" n;
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int n);
  Bytes.set_int64_le b 16 (Int64.of_int (frame_sum payload));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

let encode_request (r : request) = frame (Marshal.to_string r [])
let encode_response (r : response) = frame (Marshal.to_string r [])

(* Unmarshalling a checksummed payload can still raise on a foreign (but
   checksum-valid) byte stream — e.g. a stray client speaking another
   protocol version of the message type. Typed [Corrupt], never an
   escape. *)
let parse_request s : (request, E.t) result =
  match (Marshal.from_string s 0 : request) with
  | r -> Ok r
  | exception _ -> E.error E.Corrupt "Protocol: undecodable request payload"

let parse_response s : (response, E.t) result =
  match (Marshal.from_string s 0 : response) with
  | r -> Ok r
  | exception _ -> E.error E.Corrupt "Protocol: undecodable response payload"

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                 *)
(* ------------------------------------------------------------------ *)

(** Per-connection reassembly buffer: bytes are fed as they arrive (the
    server reads nonblocking, so a frame may span many reads — or a hung
    client may park half a frame here forever without blocking anyone);
    complete verified frames pop out. *)
type decoder = { mutable buf : Bytes.t; mutable len : int }

let decoder () = { buf = Bytes.create 4096; len = 0 }
let buffered d = d.len

let feed d src off n =
  if n > 0 then begin
    if d.len + n > Bytes.length d.buf then begin
      let cap = ref (Bytes.length d.buf) in
      while d.len + n > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit d.buf 0 b 0 d.len;
      d.buf <- b
    end;
    Bytes.blit src off d.buf d.len n;
    d.len <- d.len + n
  end

(** [Ok None]: need more bytes. [Ok (Some payload)]: one verified frame,
    consumed. [Error]: corrupt framing (bad magic, implausible length,
    checksum mismatch) — the connection is beyond resync, drop it. *)
let next_frame d : (string option, E.t) result =
  if d.len < header_bytes then Ok None
  else if Bytes.sub_string d.buf 0 8 <> magic then
    E.error E.Corrupt "Protocol: bad frame magic"
  else
    let n = Int64.to_int (Bytes.get_int64_le d.buf 8) in
    if n < 0 || n > max_frame then E.error E.Corrupt "Protocol: implausible frame length %d" n
    else if d.len < header_bytes + n then Ok None
    else begin
      let sum = Int64.to_int (Bytes.get_int64_le d.buf 16) in
      let payload = Bytes.sub_string d.buf header_bytes n in
      if frame_sum payload <> sum then E.error E.Corrupt "Protocol: frame checksum mismatch"
      else begin
        let rest = d.len - (header_bytes + n) in
        Bytes.blit d.buf (header_bytes + n) d.buf 0 rest;
        d.len <- rest;
        Ok (Some payload)
      end
    end
