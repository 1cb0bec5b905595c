(* Service-layer units: the typed admission error kinds, the framed wire
   protocol (round-trip, reassembly, corruption), property tests of the
   two-stage weighted round-robin scheduler, and the fd-leak regression
   over repeatedly failing journal/trace opens. The end-to-end daemon
   chaos scenarios (kill/restart, wire corruption, hung clients) live in
   service_smoke.ml. *)

module E = Hscd_util.Hscd_error
module P = Hscd_service.Protocol
module Sched = Hscd_service.Scheduler

(* ------------------------------------------------------------------ *)
(* Busy / Rejected error kinds                                         *)
(* ------------------------------------------------------------------ *)

let test_error_kinds () =
  let busy = E.make E.Busy "queue full" in
  let rejected = E.make E.Rejected "unknown tenant" in
  Alcotest.(check bool) "Busy is transient (backpressure clears)" true (E.transient busy);
  Alcotest.(check bool) "Rejected is final (policy cannot clear)" false (E.transient rejected);
  Alcotest.(check int) "Busy exit code" 4 (E.exit_code busy);
  Alcotest.(check int) "Rejected exit code" 5 (E.exit_code rejected);
  Alcotest.(check string) "Busy kind name" "busy" (E.kind_name E.Busy);
  Alcotest.(check string) "Rejected kind name" "rejected" (E.kind_name E.Rejected);
  (* the pre-existing codes must be untouched *)
  Alcotest.(check int) "Usage still 2" 2 (E.exit_code (E.make E.Usage "x"));
  Alcotest.(check int) "Internal still 3" 3 (E.exit_code (E.make E.Internal "x"));
  Alcotest.(check int) "Io still 1" 1 (E.exit_code (E.make E.Io "x"))

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

let sample_spec =
  P.Sweep { schemes = [ "TPI"; "HW" ]; cfg = P.default_cfg_spec; small = true }

let sample_requests =
  [
    P.Hello { version = P.version; tenant = "alice" };
    P.Submit { digest = P.job_digest sample_spec; spec = sample_spec };
    P.Ping;
  ]

let feed_all ?(chunk = max_int) dec s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = min chunk (n - !off) in
    P.feed dec b !off k;
    off := !off + k
  done

let test_roundtrip () =
  (* all frames concatenated, fed one byte at a time: reassembly across
     arbitrarily fragmented reads *)
  let wire = String.concat "" (List.map P.encode_request sample_requests) in
  let dec = P.decoder () in
  feed_all ~chunk:1 dec wire;
  List.iter
    (fun expected ->
      match P.next_frame dec with
      | Ok (Some payload) ->
        (match P.parse_request payload with
        | Ok got -> Alcotest.(check bool) "request round-trips" true (got = expected)
        | Error e -> Alcotest.failf "parse failed: %s" (E.to_string e))
      | Ok None -> Alcotest.fail "frame should be complete"
      | Error e -> Alcotest.failf "decode failed: %s" (E.to_string e))
    sample_requests;
  (match P.next_frame dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "decoder should be drained");
  Alcotest.(check int) "no residual bytes" 0 (P.buffered dec)

let test_truncated () =
  let wire = P.encode_request P.Ping in
  (* every proper prefix must say "need more", never corrupt or a frame *)
  for n = 0 to String.length wire - 1 do
    let dec = P.decoder () in
    feed_all dec (String.sub wire 0 n);
    match P.next_frame dec with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "prefix of %d bytes yielded a frame" n
    | Error e -> Alcotest.failf "prefix of %d bytes flagged corrupt: %s" n (E.to_string e)
  done

let test_bit_flips () =
  let wire = P.encode_request (P.Submit { digest = P.job_digest sample_spec; spec = sample_spec }) in
  (* flip one bit in every byte: the decoder must reject the frame (or,
     for a length-field flip that makes the frame look longer, keep
     waiting) — it must never hand over a payload *)
  for i = 0 to String.length wire - 1 do
    let b = Bytes.of_string wire in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
    let dec = P.decoder () in
    P.feed dec b 0 (Bytes.length b);
    match P.next_frame dec with
    | Error _ -> () (* typed Corrupt: magic, length or checksum caught it *)
    | Ok None -> () (* length flipped upward: stuck waiting, never delivered *)
    | Ok (Some payload) ->
      Alcotest.(check bool)
        (Printf.sprintf "flipped byte %d must not verify" i)
        true
        (payload <> Bytes.to_string b)
      (* unreachable in practice: record it loudly if the checksum ever
         passes a corrupted frame *)
  done

let test_oversized_length () =
  let wire = P.encode_request P.Ping in
  let b = Bytes.of_string wire in
  Bytes.set_int64_le b 8 (Int64.of_int (P.max_frame + 1));
  let dec = P.decoder () in
  P.feed dec b 0 (Bytes.length b);
  (match P.next_frame dec with
  | Error e -> Alcotest.(check bool) "oversized length is Corrupt" true (e.E.kind = E.Corrupt)
  | _ -> Alcotest.fail "oversized length must be rejected before allocation");
  let b = Bytes.of_string wire in
  Bytes.set_int64_le b 8 (-1L);
  let dec = P.decoder () in
  P.feed dec b 0 (Bytes.length b);
  match P.next_frame dec with
  | Error _ -> ()
  | _ -> Alcotest.fail "negative length must be rejected"

let test_digest_identity () =
  let d1 = P.job_digest sample_spec in
  let d2 = P.job_digest (P.Sweep { schemes = [ "TPI"; "HW" ]; cfg = P.default_cfg_spec; small = true }) in
  let d3 = P.job_digest (P.Sweep { schemes = [ "HW"; "TPI" ]; cfg = P.default_cfg_spec; small = true }) in
  Alcotest.(check string) "equal specs share a digest" d1 d2;
  Alcotest.(check bool) "different specs differ" true (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Scheduler properties                                                *)
(* ------------------------------------------------------------------ *)

(* submissions tagged (tenant, seq) so served order is checkable *)
let drain sched =
  let rec go acc =
    match Sched.next sched with None -> List.rev acc | Some (t, j) -> go ((t, j) :: acc)
  in
  go []

let qcheck_work_conserving =
  QCheck.Test.make ~name:"scheduler is work-conserving and loses nothing" ~count:200
    QCheck.(list (pair (int_bound 3) unit))
    (fun submissions ->
      let sched = Sched.create () in
      let admitted = ref 0 in
      List.iteri
        (fun i (t, ()) ->
          match Sched.submit sched ~tenant:(Printf.sprintf "t%d" t) i with
          | `Queued _ -> incr admitted
          | `Busy _ | `Rejected _ -> ())
        submissions;
      let served = drain sched in
      List.length served = !admitted && Sched.pending sched = 0 && Sched.next sched = None)

let qcheck_fcfs_within_tenant =
  QCheck.Test.make ~name:"scheduler serves FCFS within each tenant" ~count:200
    QCheck.(list_of_size Gen.(int_bound 60) (int_bound 3))
    (fun tenants ->
      let sched = Sched.create () in
      List.iteri
        (fun i t -> ignore (Sched.submit sched ~tenant:(Printf.sprintf "t%d" t) i))
        tenants;
      let served = drain sched in
      let last = Hashtbl.create 4 in
      List.for_all
        (fun (t, seq) ->
          let ok = match Hashtbl.find_opt last t with None -> true | Some p -> seq > p in
          Hashtbl.replace last t seq;
          ok)
        served)

(* Backlogged window: with every tenant over-provisioned with work, any
   service window of n slots gives tenant i within (error margin) of
   n * w_i / sum w. Stride scheduling bounds the error by 1 slot per
   competing tenant. *)
let qcheck_weighted_shares =
  QCheck.Test.make ~name:"scheduler shares a backlogged window by weight" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (w1, w2) ->
      let sched = Sched.create () in
      Sched.add_tenant sched ~name:"a" { Sched.weight = w1; capacity = 2048 };
      Sched.add_tenant sched ~name:"b" { Sched.weight = w2; capacity = 2048 };
      let window = 50 * (w1 + w2) in
      for i = 0 to window do
        ignore (Sched.submit sched ~tenant:"a" i);
        ignore (Sched.submit sched ~tenant:"b" i)
      done;
      let counts = Hashtbl.create 2 in
      for _ = 1 to window do
        match Sched.next sched with
        | Some (t, _) ->
          Hashtbl.replace counts t (1 + Option.value (Hashtbl.find_opt counts t) ~default:0)
        | None -> ()
      done;
      let got t = Option.value (Hashtbl.find_opt counts t) ~default:0 in
      let expect w = float_of_int window *. float_of_int w /. float_of_int (w1 + w2) in
      abs_float (float_of_int (got "a") -. expect w1) <= 1.0
      && abs_float (float_of_int (got "b") -. expect w2) <= 1.0)

(* Adversarial arrivals: tenants submit and the server drains in a random
   interleaving. From any point where tenant q has work queued, q must be
   served within sum_{i<>q} (ceil(w_i / w_q) + 1) service slots — the
   stride bound (with one extra slot of slack per competitor for pass
   re-clamping on empty->nonempty transitions). *)
let qcheck_no_starvation =
  QCheck.Test.make ~name:"scheduler never starves a nonempty tenant" ~count:150
    QCheck.(
      pair
        (array_of_size Gen.(return 3) (int_range 1 8))
        (list_of_size Gen.(int_bound 120) (pair (int_bound 3) bool)))
    (fun (weights, script) ->
      let sched = Sched.create () in
      Array.iteri
        (fun i w ->
          Sched.add_tenant sched ~name:(Printf.sprintf "t%d" i)
            { Sched.weight = w; capacity = 4096 })
        weights;
      let n = Array.length weights in
      let bound q =
        let s = ref 0 in
        for i = 0 to n - 1 do
          if i <> q then s := !s + ((weights.(i) + weights.(q) - 1) / weights.(q)) + 1
        done;
        2 * !s (* 2x margin: the property is the absence of starvation *)
      in
      (* waiting.(q): slots since q became continuously nonempty *)
      let waiting = Array.make n (-1) in
      let ok = ref true in
      let note_serve served =
        for q = 0 to n - 1 do
          if Sched.tenant_pending sched (Printf.sprintf "t%d" q) > 0 then begin
            if waiting.(q) < 0 then waiting.(q) <- 0
            else begin
              waiting.(q) <- waiting.(q) + 1;
              if waiting.(q) > bound q then ok := false
            end
          end
          else waiting.(q) <- -1
        done;
        match served with
        | Some (t, _) ->
          Scanf.sscanf t "t%d" (fun q -> waiting.(q) <- -1)
        | None -> ()
      in
      List.iter
        (fun (t, do_serve) ->
          ignore (Sched.submit sched ~tenant:(Printf.sprintf "t%d" (t mod n)) 0);
          if do_serve then begin
            let served = Sched.next sched in
            note_serve served
          end)
        script;
      (* drain the tail under the same bound *)
      let rec finish () =
        match Sched.next sched with
        | None -> ()
        | served ->
          note_serve served;
          finish ()
      in
      finish ();
      !ok)

let test_admission_bounds () =
  let sched = Sched.create ~strict:true () in
  Sched.add_tenant sched ~name:"a" { Sched.weight = 1; capacity = 2 };
  (match Sched.submit sched ~tenant:"a" 0 with
  | `Queued 0 -> ()
  | _ -> Alcotest.fail "first submit queues at position 0");
  (match Sched.submit sched ~tenant:"a" 1 with
  | `Queued 1 -> ()
  | _ -> Alcotest.fail "second submit queues at position 1");
  (match Sched.submit sched ~tenant:"a" 2 with
  | `Busy _ -> ()
  | _ -> Alcotest.fail "submit beyond capacity must be Busy");
  (match Sched.submit sched ~tenant:"mallory" 0 with
  | `Rejected _ -> ()
  | _ -> Alcotest.fail "unknown tenant under strict must be Rejected");
  (* force bypasses capacity (crash recovery of journaled admissions) *)
  Sched.force sched ~tenant:"a" 3;
  Alcotest.(check int) "force enqueues beyond capacity" 3 (Sched.tenant_pending sched "a");
  (* back under capacity (2) only after two of the three drain *)
  ignore (Sched.next sched);
  ignore (Sched.next sched);
  match Sched.submit sched ~tenant:"a" 4 with
  | `Queued _ -> ()
  | _ -> Alcotest.fail "capacity frees as the queue drains"

let test_idle_tenant_no_banked_credit () =
  (* tenant b sits idle while a is served many times; when b wakes it must
     not monopolize the scheduler to "catch up" *)
  let sched = Sched.create () in
  Sched.add_tenant sched ~name:"a" { Sched.weight = 1; capacity = 4096 };
  Sched.add_tenant sched ~name:"b" { Sched.weight = 1; capacity = 4096 };
  for i = 0 to 99 do
    ignore (Sched.submit sched ~tenant:"a" i)
  done;
  for _ = 1 to 50 do
    ignore (Sched.next sched)
  done;
  for i = 0 to 19 do
    ignore (Sched.submit sched ~tenant:"b" i)
  done;
  (* equal weights from here on: any window of 10 serves splits ~5/5 *)
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10 do
    match Sched.next sched with
    | Some ("a", _) -> incr a
    | Some ("b", _) -> incr b
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "woken tenant interleaves, not monopolizes (a=%d b=%d)" !a !b)
    true
    (abs (!a - !b) <= 1)

(* ------------------------------------------------------------------ *)
(* fd-leak regression: failing opens must not consume descriptors       *)
(* ------------------------------------------------------------------ *)

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None (* not on Linux: skip the count *)

let failing_opens dir iterations =
  let garbage = Filename.concat dir "garbage.bin" in
  let oc = open_out_bin garbage in
  output_string oc "NOTAMAGIC the rest of this file is not a journal or a trace\n";
  close_out oc;
  let truncated = Filename.concat dir "truncated.jnl" in
  let oc = open_out_bin truncated in
  output_string oc "HSCDJNL1";
  output_string oc "\x0c\x00\x00\x00\x00\x00\x00\x00torn"; (* key_len promises 12, 4 present *)
  close_out oc;
  for _ = 1 to iterations do
    (match Hscd_util.Journal.load garbage with Ok _ -> failwith "garbage loaded" | Error _ -> ());
    (match Hscd_util.Journal.open_append garbage with
    | Ok _ -> failwith "garbage opened as journal"
    | Error _ -> ());
    (* torn tail: open succeeds by healing — must still not leak the
       fds used for the read/rewrite cycle *)
    (match Hscd_util.Journal.open_append truncated with
    | Ok (j, _) -> Hscd_util.Journal.close j
    | Error _ -> ());
    (match E.guard (fun () -> Hscd_sim.Trace_io.load garbage) with
    | Ok _ -> failwith "garbage loaded as text trace"
    | Error _ -> ());
    (match E.guard (fun () -> Hscd_sim.Trace_io.read_packed garbage) with
    | Ok _ -> failwith "garbage loaded as packed trace"
    | Error _ -> ());
    ignore (Hscd_sim.Trace_io.is_binary garbage);
    ignore (Hscd_sim.Trace_io.is_binary (Filename.concat dir "does-not-exist"))
  done

let test_fd_leaks () =
  let dir = Filename.temp_file "hscd-fd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* warm-up pass so lazily allocated fds (stdio, etc.) stabilize *)
      failing_opens dir 2;
      match count_fds () with
      | None -> () (* no /proc: the ulimit variant in service_smoke still runs *)
      | Some before ->
        failing_opens dir 512;
        let after = Option.get (count_fds ()) in
        Alcotest.(check int)
          (Printf.sprintf "fd count stable across 512 failing opens (%d -> %d)" before after)
          before after)

let suite =
  [
    Alcotest.test_case "Busy/Rejected error kinds" `Quick test_error_kinds;
    Alcotest.test_case "protocol round-trip, byte-at-a-time reassembly" `Quick test_roundtrip;
    Alcotest.test_case "protocol truncation means need-more, never corrupt" `Quick test_truncated;
    Alcotest.test_case "protocol rejects every single-bit flip" `Quick test_bit_flips;
    Alcotest.test_case "protocol bounds the length field" `Quick test_oversized_length;
    Alcotest.test_case "job digests are stable identities" `Quick test_digest_identity;
    QCheck_alcotest.to_alcotest qcheck_work_conserving;
    QCheck_alcotest.to_alcotest qcheck_fcfs_within_tenant;
    QCheck_alcotest.to_alcotest qcheck_weighted_shares;
    QCheck_alcotest.to_alcotest qcheck_no_starvation;
    Alcotest.test_case "admission: Busy at capacity, Rejected unknown, force bypass" `Quick
      test_admission_bounds;
    Alcotest.test_case "idle tenant wakes without banked credit" `Quick
      test_idle_tenant_no_banked_credit;
    Alcotest.test_case "failing opens leak no fds" `Quick test_fd_leaks;
  ]
