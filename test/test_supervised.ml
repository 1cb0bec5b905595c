(** Unit tests of the robustness layer: the typed error module, the
    checksummed checkpoint journal, and the supervised pool (retry,
    timeout, cancellation, degradation). *)

module Err = Hscd_util.Hscd_error
module Pool = Hscd_util.Pool
module Journal = Hscd_util.Journal

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- Hscd_error --- *)

let test_error_classification () =
  Alcotest.(check bool) "Error passes through" true
    ((Err.of_exn (Err.Error (Err.make Err.Corrupt "x"))).kind = Err.Corrupt);
  Alcotest.(check bool) "Failure takes default" true
    ((Err.of_exn ~default:Err.Parse (Failure "boom")).kind = Err.Parse);
  Alcotest.(check bool) "Sys_error is Io" true
    ((Err.of_exn (Sys_error "disk on fire")).kind = Err.Io);
  Alcotest.(check bool) "Invalid_argument is Internal" true
    ((Err.of_exn (Invalid_argument "idx")).kind = Err.Internal)

let test_error_policy () =
  let k kind = Err.make kind "m" in
  List.iter
    (fun (kind, code, retry) ->
      Alcotest.(check int) (Err.kind_name kind ^ " exit code") code (Err.exit_code (k kind));
      Alcotest.(check bool) (Err.kind_name kind ^ " transient") retry (Err.transient (k kind)))
    [
      (Err.Usage, 2, false);
      (Err.Parse, 1, false);
      (Err.Io, 1, true);
      (Err.Corrupt, 1, false);
      (Err.Worker, 1, true);
      (Err.Timeout, 1, true);
      (Err.Check, 1, false);
      (Err.Internal, 3, false);
    ]

let test_error_context () =
  let e = Err.make Err.Corrupt "bad record" |> Err.add_context "cell TRFD/TPI" |> Err.add_context "sweep" in
  Alcotest.(check string) "rendered" "corrupt: bad record (in cell TRFD/TPI, in sweep)"
    (Err.to_string e);
  match Err.guard ~context:"outer" (fun () -> Err.fail Err.Check "inner %d" 7) with
  | Ok _ -> Alcotest.fail "guard let a failure through"
  | Error e ->
    Alcotest.(check string) "guard context" "check: inner 7 (in outer)" (Err.to_string e)

(* --- Journal --- *)

let test_journal_roundtrip () =
  let path = tmp "hscd_jnl_rt.jnl" in
  if Sys.file_exists path then Sys.remove path;
  Alcotest.(check bool) "missing file loads empty" true (Journal.load path = Ok []);
  (match Journal.open_append path with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok (j, _) ->
    ignore (Journal.append j ~key:"a" "alpha");
    ignore (Journal.append j ~key:"b" (String.make 1000 '\xab'));
    ignore (Journal.append j ~key:"a" "alpha2");
    Journal.close j);
  (match Journal.load path with
  | Ok [ ("a", "alpha"); ("b", big); ("a", "alpha2") ] ->
    Alcotest.(check int) "payload preserved" 1000 (String.length big)
  | Ok l -> Alcotest.fail (Printf.sprintf "wrong records: %d" (List.length l))
  | Error e -> Alcotest.fail (Err.to_string e));
  Sys.remove path

let test_journal_torn_tail_recovery () =
  let path = tmp "hscd_jnl_torn.jnl" in
  if Sys.file_exists path then Sys.remove path;
  (match Journal.open_append path with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok (j, _) ->
    ignore (Journal.append j ~key:"k1" "v1");
    ignore (Journal.append j ~key:"k2" "v2");
    Journal.close j);
  (* a kill mid-append: half a record dangling after the valid prefix *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x02\x00\x00\x00\x00\x00\x00\x00k3";
  close_out oc;
  (match Journal.open_append path with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok (j, records) ->
    Alcotest.(check int) "torn tail dropped, prefix kept" 2 (List.length records);
    (* the handle must be appendable after recovery *)
    ignore (Journal.append j ~key:"k3" "v3");
    Journal.close j);
  (match Journal.load path with
  | Ok [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ] -> ()
  | Ok l -> Alcotest.fail (Printf.sprintf "wrong records after recovery: %d" (List.length l))
  | Error e -> Alcotest.fail (Err.to_string e));
  Sys.remove path

let test_journal_bit_flip_drops_suffix () =
  let path = tmp "hscd_jnl_flip.jnl" in
  if Sys.file_exists path then Sys.remove path;
  (match Journal.open_append path with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok (j, _) ->
    ignore (Journal.append j ~key:"k1" "v1");
    ignore (Journal.append j ~key:"k2" "v2");
    Journal.close j);
  (* flip a bit inside the second record's payload: its checksum dies,
     the first record survives *)
  let len = (Unix.stat path).Unix.st_size in
  Hscd_check.Fault.Chaos.corrupt_file path ~byte:(len - 10);
  (match Journal.load path with
  | Ok [ ("k1", "v1") ] -> ()
  | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 surviving record, got %d" (List.length l))
  | Error e -> Alcotest.fail (Err.to_string e));
  Sys.remove path

let test_journal_foreign_magic () =
  let path = tmp "hscd_jnl_foreign.jnl" in
  let oc = open_out_bin path in
  output_string oc "HSCDTRC3not a journal";
  close_out oc;
  (match Journal.load path with
  | Error e -> Alcotest.(check bool) "corrupt kind" true (e.kind = Err.Corrupt)
  | Ok _ -> Alcotest.fail "foreign file accepted as journal");
  Sys.remove path

let open_journal path =
  match Journal.open_append path with Ok r -> r | Error e -> Alcotest.fail (Err.to_string e)

let offsets records = List.map (fun { Journal.key; offset; _ } -> (key, offset)) records

let check_read j (key, offset) payload =
  match Journal.read j offset with
  | Ok r -> Alcotest.(check (pair string string)) (Printf.sprintf "read back %S" key) (key, payload) r
  | Error e -> Alcotest.fail (Err.to_string e)

let test_journal_offsets () =
  let path = tmp "hscd_jnl_offsets.jnl" in
  if Sys.file_exists path then Sys.remove path;
  let records = [ ("a", "alpha"); ("b", String.make 1000 '\xab'); ("", ""); ("d", "delta") ] in
  let j, _ = open_journal path in
  let appended = List.map (fun (k, v) -> (k, Journal.append j ~key:k v)) (List.filteri (fun i _ -> i < 2) records) in
  Journal.close j;
  let j, recovered = open_journal path in
  Alcotest.(check (list (pair string int))) "reopen recovers the appended offsets" appended (offsets recovered);
  (* a reopened handle appends at the end of the file, not at 0 *)
  let appended = appended @ List.map (fun (k, v) -> (k, Journal.append j ~key:k v)) (List.filteri (fun i _ -> i >= 2) records) in
  List.iter2 (fun at (_, v) -> check_read j at v) appended records;
  Journal.close j;
  (* a kill mid-append: half a record dangling after the valid prefix *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x05\x00\x00\x00\x00\x00\x00\x00tor";
  close_out oc;
  let j, recovered = open_journal path in
  Alcotest.(check (list (pair string int))) "offsets survive the torn-tail rewrite" appended (offsets recovered);
  let e = Journal.append j ~key:"e" "epsilon" in
  List.iter2 (fun at (_, v) -> check_read j at v) appended records;
  check_read j ("e", e) "epsilon";
  Journal.close j;
  let _, recovered = open_journal path in
  Alcotest.(check (list (pair string int))) "append after the rewrite reports the recovered offset"
    (appended @ [ ("e", e) ]) (offsets recovered);
  Sys.remove path

let test_journal_read_flipped_byte () =
  let path = tmp "hscd_jnl_read_flip.jnl" in
  if Sys.file_exists path then Sys.remove path;
  let j, _ = open_journal path in
  let a = Journal.append j ~key:"a" "alpha" in
  let b = Journal.append j ~key:"b" "bravo" in
  (* every byte of b's record, flipped on disk after the append *)
  for byte = b to b + 24 + 1 + 5 - 1 do
    Hscd_check.Fault.Chaos.corrupt_file path ~byte;
    (match Journal.read j b with
    | Error e -> Alcotest.(check bool) (Printf.sprintf "flip at %d is Corrupt" byte) true (e.kind = Err.Corrupt)
    | Ok _ -> Alcotest.fail (Printf.sprintf "flip at byte %d served" byte));
    check_read j ("a", a) "alpha";
    Hscd_check.Fault.Chaos.corrupt_file path ~byte
  done;
  check_read j ("b", b) "bravo";
  Journal.close j;
  Sys.remove path

let test_journal_read_bad_offset () =
  let fds () = try Some (Array.length (Sys.readdir "/proc/self/fd")) with Sys_error _ -> None in
  let path = tmp "hscd_jnl_read_off.jnl" in
  if Sys.file_exists path then Sys.remove path;
  let before = fds () in
  let j, _ = open_journal path in
  let a = Journal.append j ~key:"alpha" (String.make 100 'a') in
  let b = Journal.append j ~key:"b" "bravo" in
  List.iter
    (fun offset ->
      match Journal.read j offset with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "offset %d is not a record start" offset))
    [ min_int; -1; 0; 3; a + 1; a + 8; a + 13; b - 1; b + 1; b + 29; b + 30; max_int ];
  check_read j ("b", b) "bravo";
  (* one read descriptor beside the append channel, released by close *)
  Option.iter
    (fun n -> Alcotest.(check (option int)) "one read descriptor" (Some (n + 2)) (fds ()))
    before;
  Journal.close j;
  Alcotest.(check (option int)) "close releases both descriptors" before (fds ());
  (match Journal.read j b with Error _ -> () | Ok _ -> Alcotest.fail "read on a closed handle");
  Sys.remove path

(* --- supervised pool --- *)

exception Flaky of int

let test_supervise_all_ok () =
  List.iter
    (fun jobs ->
      let outcomes, stats = Pool.supervise ~jobs (fun x -> x * x) (List.init 20 Fun.id) in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.init 20 (fun i -> i * i))
        (List.map (function Pool.Done v -> v | _ -> -1) outcomes);
      Alcotest.(check int) "no retries" 0 stats.Pool.retried)
    [ 1; 4 ]

let test_supervise_retry_converges () =
  (* each task crashes on its first attempt, then succeeds — with the
     default 2 retries every outcome must still be Done *)
  List.iter
    (fun jobs ->
      let mu = Mutex.create () in
      let tried = Hashtbl.create 16 in
      let f x =
        let n =
          Mutex.protect mu (fun () ->
              let n = 1 + Option.value ~default:0 (Hashtbl.find_opt tried x) in
              Hashtbl.replace tried x n;
              n)
        in
        if n = 1 then raise (Flaky x);
        x + 100
      in
      let outcomes, stats = Pool.supervise ~jobs f (List.init 8 Fun.id) in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d converged" jobs)
        (List.init 8 (fun i -> i + 100))
        (List.map (function Pool.Done v -> v | _ -> -1) outcomes);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d retried" jobs)
        true
        (stats.Pool.retried >= 8))
    [ 1; 3 ]

let test_supervise_retries_exhausted () =
  let outcomes, _ =
    Pool.supervise ~jobs:2
      ~policy:{ Pool.default_policy with Pool.retries = 1; backoff = 0.001 }
      (fun x -> if x = 3 then raise (Flaky 3) else x)
      (List.init 6 Fun.id)
  in
  List.iteri
    (fun i oc ->
      match (i, oc) with
      | 3, Pool.Failed e ->
        Alcotest.(check bool) "worker kind" true (e.Err.kind = Err.Worker)
      | 3, _ -> Alcotest.fail "task 3 should have failed"
      | _, Pool.Done v -> Alcotest.(check int) "sibling" i v
      | _, _ -> Alcotest.fail "sibling lost")
    outcomes

let test_supervise_timeout () =
  (* one cooperative hang hits the deadline and, with no retries, is
     reported Timed_out; siblings are unaffected *)
  let release = Atomic.make false in
  let f x =
    if x = 1 then
      while not (Atomic.get release) do
        Unix.sleepf 0.005
      done;
    x
  in
  let outcomes, stats =
    Pool.supervise ~jobs:3
      ~policy:{ Pool.default_policy with Pool.deadline = Some 0.15; retries = 0 }
      f (List.init 5 Fun.id)
  in
  Atomic.set release true;
  Alcotest.(check bool) "timeout counted" true (stats.Pool.timeouts >= 1);
  List.iteri
    (fun i oc ->
      match (i, oc) with
      | 1, Pool.Timed_out s -> Alcotest.(check bool) "gave up past deadline" true (s >= 0.15)
      | 1, _ -> Alcotest.fail "hung task should have timed out"
      | _, Pool.Done v -> Alcotest.(check int) "sibling" i v
      | _, _ -> Alcotest.fail "sibling lost")
    outcomes

let test_supervise_hang_then_retry_converges () =
  (* a task that hangs once and then behaves: the timeout plus one retry
     must converge to Done — the chaos-harness contract in miniature *)
  let p = Hscd_check.Fault.Chaos.plan ~hang_first:[ ("slow", 30.0) ] () in
  let f x =
    if x = 2 then Hscd_check.Fault.Chaos.strike p "slow";
    x * 7
  in
  let outcomes, stats =
    Pool.supervise ~jobs:3
      ~policy:{ Pool.default_policy with Pool.deadline = Some 0.15; retries = 2; backoff = 0.01 }
      f (List.init 5 Fun.id)
  in
  Hscd_check.Fault.Chaos.release p;
  Alcotest.(check (list int)) "all done" (List.init 5 (fun i -> i * 7))
    (List.map (function Pool.Done v -> v | _ -> -1) outcomes);
  Alcotest.(check bool) "a timeout happened" true (stats.Pool.timeouts >= 1);
  Alcotest.(check bool) "a respawn happened" true (stats.Pool.respawns >= 1)

let test_supervise_fail_fast_cancels () =
  (* keep_going=false: after task 0's final failure, queued tasks are
     cancelled; with jobs=1 execution is in submission order, so
     everything after 0 must come back Failed("cancelled...") *)
  let outcomes, _ =
    Pool.supervise ~jobs:1
      ~policy:{ Pool.default_policy with Pool.retries = 0; keep_going = false }
      (fun x -> if x = 0 then raise (Flaky 0) else x)
      (List.init 4 Fun.id)
  in
  (match List.nth outcomes 0 with
  | Pool.Failed e -> Alcotest.(check bool) "task 0 worker error" true (e.Err.kind = Err.Worker)
  | _ -> Alcotest.fail "task 0 should fail");
  List.iteri
    (fun i oc ->
      if i > 0 then
        match oc with
        | Pool.Failed e ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d cancelled" i)
            true
            (String.length e.Err.message >= 9 && String.sub e.Err.message 0 9 = "cancelled")
        | _ -> Alcotest.fail (Printf.sprintf "task %d should be cancelled" i))
    outcomes

let test_supervise_degrades_without_domains () =
  (* every spawn fails: the supervisor must fall back to sequential
     in-caller execution and still return complete results *)
  Atomic.set Pool.For_testing.fail_next_spawns 100;
  let outcomes, stats = Pool.supervise ~jobs:4 (fun x -> x + 1) (List.init 6 Fun.id) in
  Atomic.set Pool.For_testing.fail_next_spawns 0;
  Alcotest.(check (list int)) "all done sequentially" (List.init 6 (fun i -> i + 1))
    (List.map (function Pool.Done v -> v | _ -> -1) outcomes);
  Alcotest.(check bool) "degraded flag" true stats.Pool.degraded

let test_supervise_on_done_completion_order () =
  (* on_done fires exactly once per task, in the supervising domain *)
  let seen = ref [] in
  let outcomes, _ =
    Pool.supervise ~jobs:3
      ~on_done:(fun i oc -> seen := (i, oc) :: !seen)
      (fun x -> x * 2)
      (List.init 10 Fun.id)
  in
  Alcotest.(check int) "one on_done per task" 10 (List.length !seen);
  Alcotest.(check (list int)) "indices covered" (List.init 10 Fun.id)
    (List.sort compare (List.map fst !seen));
  Alcotest.(check int) "outcomes complete" 10
    (List.length (List.filter (function Pool.Done _ -> true | _ -> false) outcomes))

(* --- checkpointed compare --- *)

let test_compare_checkpoint_resume () =
  (* a rerun against the same journal reuses every cell: bit-identical
     results and no new records *)
  let path = tmp "hscd_compare_resume.jnl" in
  if Sys.file_exists path then Sys.remove path;
  let module Run = Hscd_sim.Run in
  let prog = Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:2 () in
  let cfg = { Hscd_arch.Config.default with processors = 4 } in
  let run () =
    match Run.compare_result ~cfg ~schemes:Run.extended_schemes ~jobs:2 ~checkpoint:path prog with
    | Ok (_, rs) -> List.map (fun (c : Run.comparison) -> (c.kind, c.result)) rs
    | Error e -> Alcotest.fail (Err.to_string e)
  in
  let records () =
    match Journal.load path with Ok l -> List.length l | Error e -> Alcotest.fail (Err.to_string e)
  in
  let first = run () in
  let n = records () in
  Alcotest.(check int) "one record per scheme" (List.length Run.extended_schemes) n;
  let second = run () in
  Alcotest.(check bool) "rerun bit-identical" true (first = second);
  Alcotest.(check int) "rerun appended nothing" n (records ());
  Sys.remove path

let suite =
  [
    Alcotest.test_case "error classification" `Quick test_error_classification;
    Alcotest.test_case "error policy: exit codes + transience" `Quick test_error_policy;
    Alcotest.test_case "error context trail" `Quick test_error_context;
    Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn-tail recovery" `Quick test_journal_torn_tail_recovery;
    Alcotest.test_case "journal bit flip drops suffix" `Quick test_journal_bit_flip_drops_suffix;
    Alcotest.test_case "journal rejects foreign magic" `Quick test_journal_foreign_magic;
    Alcotest.test_case "journal offsets survive reopen and torn-tail rewrite" `Quick test_journal_offsets;
    Alcotest.test_case "journal read-back rejects a flipped byte" `Quick test_journal_read_flipped_byte;
    Alcotest.test_case "journal read-back at a non-record offset" `Quick test_journal_read_bad_offset;
    Alcotest.test_case "supervise: all ok" `Quick test_supervise_all_ok;
    Alcotest.test_case "supervise: retry converges" `Quick test_supervise_retry_converges;
    Alcotest.test_case "supervise: retries exhausted" `Quick test_supervise_retries_exhausted;
    Alcotest.test_case "supervise: timeout" `Quick test_supervise_timeout;
    Alcotest.test_case "supervise: hang + retry converges" `Quick
      test_supervise_hang_then_retry_converges;
    Alcotest.test_case "supervise: fail-fast cancels" `Quick test_supervise_fail_fast_cancels;
    Alcotest.test_case "supervise: degrades without domains" `Quick
      test_supervise_degrades_without_domains;
    Alcotest.test_case "supervise: on_done fires per task" `Quick
      test_supervise_on_done_completion_order;
    Alcotest.test_case "compare checkpoint resume" `Quick test_compare_checkpoint_resume;
  ]
