(** Round-trip tests for the trace serializer, plus replay equivalence:
    simulating a reloaded trace must give identical results. *)

module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io
module Metrics = Hscd_sim.Metrics

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* write the text form straight from a compiled packed trace, load it
   back, and pack: the result must equal the original structurally *)
let text_roundtrip name prog =
  let p = (Run.compile prog).Run.packed_trace in
  let path = tmp ("hscd_trace_" ^ name ^ ".txt") in
  Trace_io.save path p;
  let loaded = Trace_io.load path in
  Sys.remove path;
  Alcotest.(check bool) (name ^ " round-trip equal") true
    (Trace_io.equal_packed (Trace.pack loaded) p);
  Alcotest.(check int) (name ^ " events preserved") p.Trace.p_total_events
    loaded.Trace.total_events;
  (p, loaded)

let test_roundtrip_stencil () =
  ignore (text_roundtrip "stencil" (Hscd_workloads.Kernels.jacobi1d ~n:32 ~iters:2 ()))

let test_roundtrip_critical () =
  (* locks and bypass marks must survive serialization *)
  ignore (text_roundtrip "crit" (Hscd_workloads.Kernels.reduction ~n:16 ()))

let test_replay_equivalence () =
  let p, loaded = text_roundtrip "mm" (Hscd_workloads.Kernels.matmul ~n:10 ()) in
  let a = Run.simulate_packed Run.TPI p in
  let b = Run.simulate Run.TPI loaded in
  Alcotest.(check int) "same cycles" a.cycles b.cycles;
  Alcotest.(check (float 1e-12)) "same miss rate"
    (Metrics.miss_rate a.metrics) (Metrics.miss_rate b.metrics);
  Alcotest.(check int) "coherent" 0 b.metrics.violations

let test_bad_input_rejected () =
  let path = tmp "hscd_trace_bad.txt" in
  let expect_parse name text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    (match Trace_io.load path with
    | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Parse; _ } -> ()
    | exception e ->
      Alcotest.fail (name ^ ": expected a typed Parse error, got " ^ Printexc.to_string e)
    | _ -> Alcotest.fail (name ^ ": expected a typed Parse error on malformed trace"));
    (* the result API never lets the exception escape *)
    match Trace_io.load_result path with
    | Error e ->
      Alcotest.(check bool) (name ^ ": load_result parse kind") true
        (e.kind = Hscd_util.Hscd_error.Parse)
    | Ok _ -> Alcotest.fail (name ^ ": load_result accepted a malformed trace")
  in
  expect_parse "nonsense line" "hscd-trace 1\nnonsense line here\n";
  (* well-formed lines whose fields the replay would index out of range *)
  let header = "hscd-trace 1\nwords 4\narray a 0 4\n" in
  let body = "epoch serial\ntask 0\n" in
  expect_parse "read address past words" (header ^ body ^ "R 999 N 0 a\n");
  expect_parse "negative write address" (header ^ body ^ "W -1 N 0 a\n");
  expect_parse "golden index past words" (header ^ "golden 9 5\n" ^ body ^ "R 1 N 0 a\n");
  expect_parse "negative compute count" (header ^ body ^ "C -100000\nW 1 N 5 a\nR 1 N 5 a\n");
  expect_parse "undeclared array name" (header ^ body ^ "R 1 N 0 zz\n");
  (* events that belong to no task *)
  expect_parse "task before any epoch" (header ^ "task 0\nW 0 N 5 a\nepoch serial\n");
  expect_parse "event before any task" (header ^ "epoch serial\nW 0 N 5 a\n");
  Sys.remove path

let test_mark_strings () =
  let open Hscd_arch.Event in
  List.iter
    (fun m -> Alcotest.(check bool) "rmark round-trip" true
        (Trace_io.mark_of_str (Trace_io.mark_str m) = m))
    [ Unmarked; Normal_read; Bypass_read; Time_read 0; Time_read 12 ];
  List.iter
    (fun m -> Alcotest.(check bool) "wmark round-trip" true
        (Trace_io.wmark_of_str (Trace_io.wmark_str m) = m))
    [ Normal_write; Bypass_write ]

let test_roundtrip_generated () =
  (* property: read (write t) = t for randomly generated fuzz traces,
     which cover every mark, lock sections and both epoch kinds *)
  for seed = 0 to 11 do
    let prng = Hscd_util.Prng.of_int seed in
    let params = Hscd_check.Gen.random_params prng in
    let trace = Hscd_check.Gen.generate prng params in
    let path = tmp (Printf.sprintf "hscd_trace_gen%d.txt" seed) in
    Trace_io.save path (Trace.pack trace);
    let loaded = Trace_io.load path in
    Sys.remove path;
    Alcotest.(check bool)
      (Printf.sprintf "generated trace %d round-trips" seed)
      true
      (Trace_io.equal trace loaded)
  done

let degenerate_layout words : Hscd_lang.Shape.layout =
  let arrays = Hashtbl.create 1 in
  Hashtbl.replace arrays "A" { Hscd_lang.Shape.name = "A"; dims = [ words ]; size = words; base = 0 };
  { Hscd_lang.Shape.arrays; total_words = words }

let test_roundtrip_degenerate () =
  (* empty trace: no epochs at all *)
  let empty =
    {
      Trace.epochs = [||];
      layout = degenerate_layout 1;
      golden_memory = [| 0 |];
      total_events = 0;
    }
  in
  (* single-event trace: one serial epoch, one task, one read *)
  let single =
    {
      Trace.epochs =
        [|
          {
            Trace.kind = Trace.Serial;
            tasks =
              [|
                {
                  Trace.iter = 0;
                  events =
                    [|
                      Hscd_arch.Event.Read
                        { addr = 0; mark = Hscd_arch.Event.Unmarked; value = 0; array = "A" };
                    |];
                };
              |];
          };
        |];
      layout = degenerate_layout 1;
      golden_memory = [| 0 |];
      total_events = 1;
    }
  in
  List.iter
    (fun (name, trace) ->
      let path = tmp ("hscd_trace_" ^ name ^ ".txt") in
      Trace_io.save path (Trace.pack trace);
      let loaded = Trace_io.load path in
      Sys.remove path;
      Alcotest.(check bool) (name ^ " round-trips") true (Trace_io.equal trace loaded))
    [ ("empty", empty); ("single", single) ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let test_corpus_resave_bytes () =
  (* the writer is pinned byte for byte: re-saving each checked-in corpus
     trace through [pack] reproduces the file exactly *)
  let dir = corpus_dir () in
  let files =
    List.filter (fun f -> Filename.check_suffix f ".trace") (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let src = Filename.concat dir f in
      let path = tmp ("hscd_resave_" ^ f) in
      Trace_io.save path (Trace.pack (Trace_io.load src));
      let bytes = read_file path in
      Sys.remove path;
      Alcotest.(check bool) (f ^ " re-saved byte-identical") true (bytes = read_file src))
    (List.sort compare files)

(* ---------- binary format ---------- *)

let binary_roundtrip name packed =
  let path = tmp ("hscd_bin_" ^ name ^ ".hscdtrc") in
  Trace_io.write_packed path packed;
  let loaded = Trace_io.read_packed path in
  Alcotest.(check bool) (name ^ " sniffed as binary") true (Trace_io.is_binary path);
  Sys.remove path;
  Alcotest.(check bool) (name ^ " binary round-trip exact") true
    (Trace_io.equal_packed packed loaded)

let test_binary_roundtrip_kernels () =
  List.iter
    (fun (name, prog) ->
      let c = Run.compile ~cache:false prog in
      binary_roundtrip name c.Run.packed_trace)
    [
      ("jacobi", Hscd_workloads.Kernels.jacobi1d ~n:32 ~iters:2 ());
      ("reduction", Hscd_workloads.Kernels.reduction ~n:16 ());
      ("matmul", Hscd_workloads.Kernels.matmul ~n:8 ());
    ]

let test_binary_roundtrip_perfect () =
  (* all six Perfect Club models at test scale *)
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) ->
      let c = Run.compile ~cache:false (e.build_small ()) in
      binary_roundtrip e.name c.Run.packed_trace)
    Hscd_workloads.Perfect.all

let test_binary_roundtrip_generated () =
  (* property: read_packed (write_packed p) = p over fuzz traces, which
     cover every mark, lock sections and both epoch kinds *)
  for seed = 0 to 11 do
    let prng = Hscd_util.Prng.of_int seed in
    let params = Hscd_check.Gen.random_params prng in
    let trace = Hscd_check.Gen.generate prng params in
    binary_roundtrip (Printf.sprintf "gen%d" seed) (Trace.pack trace)
  done

let test_binary_replay_equivalence () =
  (* a trace written to disk and read back replays bit-identically *)
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.matmul ~n:10 ()) in
  let path = tmp "hscd_bin_replay.hscdtrc" in
  Trace_io.write_packed path c.Run.packed_trace;
  let loaded = Trace_io.read_packed path in
  Sys.remove path;
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Run.scheme_name kind ^ " identical after reload")
        true
        (Run.simulate_packed kind loaded = Run.simulate_packed kind c.Run.packed_trace))
    [ Run.Base; Run.TPI; Run.HW ]

(* the typed-error contract: [read_packed_result] must come back [Error]
   with kind [Corrupt] — never let an exception escape, never [Ok] *)
let expect_corrupt name path =
  match Trace_io.read_packed_result path with
  | Error (e : Hscd_util.Hscd_error.t) ->
    Alcotest.(check bool) (name ^ ": corrupt kind") true (e.kind = Hscd_util.Hscd_error.Corrupt)
  | Ok _ -> Alcotest.fail ("corrupt trace accepted: " ^ name)
  | exception e ->
    Alcotest.fail (Printf.sprintf "%s: exception escaped read_packed_result: %s" name (Printexc.to_string e))

let test_binary_rejects_corruption () =
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.jacobi1d ~n:16 ~iters:1 ()) in
  let path = tmp "hscd_bin_corrupt.hscdtrc" in
  Trace_io.write_packed path c.Run.packed_trace;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  let write_variant s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  (* truncation: drop the checksum and a little more *)
  write_variant (String.sub content 0 (len - 12));
  expect_corrupt "truncated" path;
  (* mid-slab truncation: cut deep inside the slab section *)
  write_variant (String.sub content 0 (len * 2 / 3));
  expect_corrupt "mid-slab truncation" path;
  (* single byte flipped mid-file: checksum must catch it *)
  let flipped = Bytes.of_string content in
  let pos = len / 2 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  write_variant (Bytes.to_string flipped);
  expect_corrupt "bit flip" path;
  (* checksum itself flipped: body is intact but the trailer lies *)
  let sumflip = Bytes.of_string content in
  Bytes.set sumflip (len - 1) (Char.chr (Char.code (Bytes.get sumflip (len - 1)) lxor 0x01));
  write_variant (Bytes.to_string sumflip);
  expect_corrupt "checksum flip" path;
  (* wrong magic *)
  write_variant ("XXXXXXXX" ^ String.sub content 8 (len - 8));
  expect_corrupt "bad magic" path;
  Alcotest.(check bool) "bad magic not sniffed as binary" false (Trace_io.is_binary path);
  (* foreign formats that happen to share the magic's length: a journal,
     and the retired version-2 trace magic in front of an intact body *)
  let v2_magic = String.sub Trace_io.binary_magic 0 7 ^ "2" in
  List.iter
    (fun (name, s) ->
      write_variant s;
      expect_corrupt name path;
      (match Trace_io.map_packed_result path with
      | Error e ->
        Alcotest.(check bool) (name ^ ": map corrupt kind") true
          (e.kind = Hscd_util.Hscd_error.Corrupt)
      | Ok _ -> Alcotest.fail (name ^ ": map accepted a foreign file")
      | exception e ->
        Alcotest.fail
          (Printf.sprintf "%s: exception escaped map_packed_result: %s" name
             (Printexc.to_string e)));
      Alcotest.(check bool) (name ^ " not sniffed as binary") false (Trace_io.is_binary path))
    [ ("foreign magic", "HSCDJNL1\x00\x00\x00\x00\x00\x00\x00\x00");
      ("v2 magic", v2_magic ^ String.sub content 8 (len - 8)) ];
  (* short file / empty file *)
  write_variant "HS";
  expect_corrupt "short file" path;
  write_variant "";
  expect_corrupt "empty file" path;
  (* every header word forced out of range: counts go negative, value
     fields break the checksum — either way a typed Corrupt, no escape *)
  let n_header_words = min 24 ((len - 8) / 8) in
  for word = 0 to n_header_words - 1 do
    let b = Bytes.of_string content in
    Bytes.set_int64_le b (8 + (word * 8)) (-1L);
    write_variant (Bytes.to_string b);
    expect_corrupt (Printf.sprintf "header word %d out of range" word) path
  done;
  Sys.remove path;
  (* checksum-valid files whose slot fields the replay would index out of
     range: refused by [read_packed], and by [Mapped.validate_epoch] at the
     epoch that owns the slot *)
  let first (p : Trace.packed) op =
    let rec go i = if Trace.Slab.get p.ops i = op then i else go (i + 1) in
    go 0
  in
  let owner (p : Trace.packed) i =
    let rec go e =
      if
        Array.exists
          (fun (t : Trace.ptask) -> t.Trace.off <= i && i < t.Trace.off + t.Trace.len)
          p.Trace.p_epochs.(e).Trace.p_tasks
      then e
      else go (e + 1)
    in
    go 0
  in
  (* the address slab holds a read/write's address and a compute's count *)
  let expect_bad_slot name p op v =
    let i = first p op in
    let old = Trace.Slab.get p.Trace.addrs i in
    Trace.Slab.set p.Trace.addrs i v;
    Trace_io.write_packed path p;
    Trace.Slab.set p.Trace.addrs i old;
    expect_corrupt name path;
    let m = Trace_io.map_packed path in
    for e = 0 to owner p i - 1 do
      Trace_io.Mapped.validate_epoch m e
    done;
    match Trace_io.Mapped.validate_epoch m (owner p i) with
    | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Corrupt; _ } -> ()
    | exception e -> Alcotest.fail (name ^ ": expected Corrupt from the map, got " ^ Printexc.to_string e)
    | () -> Alcotest.fail (name ^ ": mapped epoch accepted the slot")
  in
  let module Code = Hscd_arch.Event.Code in
  let p = c.Run.packed_trace in
  expect_bad_slot "read address past total words" p Code.read 10_000_000;
  expect_bad_slot "negative read address" p Code.read (-1);
  expect_bad_slot "write address past total words" p Code.write 10_000_000;
  (* compiled kernels carry no compute slots; a corpus trace does *)
  let basic = Trace.pack (Trace_io.load (Filename.concat (corpus_dir ()) "basic.trace")) in
  expect_bad_slot "negative compute count" basic Code.compute (-100_000);
  (* checksum-valid critical-section tickets that replay would index out
     of its ticket slots, or grant out of order *)
  let expect_bad_tickets name p f =
    Trace_io.write_packed path { p with Trace.p_epochs = Array.map f p.Trace.p_epochs };
    expect_corrupt name path
  in
  let locked =
    (Run.compile ~cache:false (Hscd_workloads.Kernels.reduction ~n:16 ())).Run.packed_trace
  in
  let map_locked_tasks f (e : Trace.pepoch) =
    let f (t : Trace.ptask) = if t.Trace.n_locks > 0 then f t else t in
    { e with Trace.p_tasks = Array.map f e.Trace.p_tasks }
  in
  expect_bad_tickets "epoch tickets past the maximum" locked (fun e ->
      { e with Trace.p_n_tickets = locked.Trace.p_max_tickets + 1 });
  expect_bad_tickets "task ticket past the epoch's" locked
    (map_locked_tasks (fun t -> { t with Trace.ticket0 = t.Trace.ticket0 + 1000 }));
  expect_bad_tickets "overlapping ticket ranges" locked
    (map_locked_tasks (fun t -> { t with Trace.n_locks = t.Trace.n_locks + 1 }));
  Sys.remove path;
  (* a missing file is an [Io] error, not [Corrupt] *)
  match Trace_io.read_packed_result path with
  | Error e -> Alcotest.(check bool) "missing file: io kind" true (e.kind = Hscd_util.Hscd_error.Io)
  | Ok _ -> Alcotest.fail "missing file accepted"

(* A lock slot waits for a ticket that only an earlier unlock grants. A
   task that never unlocks (text), or locked tasks that each claim one
   ticket more than they hold while their ranges still tile (binary),
   leave a processor parked at the barrier: replay must fail [Corrupt]
   instead of dropping the parked slots. *)
let test_replay_rejects_ungranted_ticket () =
  let expect_corrupt_replay name f =
    match f () with
    | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Corrupt; _ } -> ()
    | exception e -> Alcotest.fail (name ^ ": expected Corrupt, got " ^ Printexc.to_string e)
    | (_ : Hscd_sim.Engine.result) -> Alcotest.fail (name ^ ": replay dropped the parked slots")
  in
  let path = tmp "hscd_ticket.txt" in
  let oc = open_out path in
  output_string oc
    "hscd-trace 1\nwords 4\narray A 0 4\ngolden 0 5\ngolden 1 7\nepoch parallel 0 2\n\
     task 0\nL\nW 0 B 5 A\ntask 1\nL\nW 1 B 7 A\nU\n";
  close_out oc;
  let loaded = Trace_io.load path in
  Sys.remove path;
  expect_corrupt_replay "task without unlock" (fun () -> Run.simulate Run.TPI loaded);
  let locked =
    (Run.compile ~cache:false (Hscd_workloads.Kernels.reduction ~n:16 ())).Run.packed_trace
  in
  let claim_one_more (e : Trace.pepoch) =
    let next = ref 0 in
    let claim (t : Trace.ptask) =
      let n_locks = if t.Trace.n_locks > 0 then t.Trace.n_locks + 1 else 0 in
      let t = { t with Trace.ticket0 = !next; n_locks } in
      next := !next + n_locks;
      t
    in
    let p_tasks = Array.map claim e.Trace.p_tasks in
    { e with Trace.p_tasks; p_n_tickets = !next }
  in
  let p_epochs = Array.map claim_one_more locked.Trace.p_epochs in
  let p_max_tickets = Array.fold_left (fun m e -> max m e.Trace.p_n_tickets) 0 p_epochs in
  let path = tmp "hscd_ticket.hscdtrc" in
  Trace_io.write_packed path { locked with Trace.p_epochs; p_max_tickets };
  expect_corrupt_replay "binary, one ticket more per task" (fun () ->
      Run.simulate_packed Run.TPI (Trace_io.read_packed path));
  expect_corrupt_replay "mapped, one ticket more per task" (fun () ->
      Run.simulate_mapped Run.TPI (Trace_io.map_packed path));
  Sys.remove path

(* ---------- memory-mapped loading ---------- *)

let test_mmap_roundtrip () =
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.matmul ~n:10 ()) in
  let path = tmp "hscd_map_rt.hscdtrc" in
  Trace_io.write_packed path c.Run.packed_trace;
  let m = Trace_io.map_packed path in
  Trace_io.Mapped.validate_all m;
  Alcotest.(check bool) "mapped slabs = written slabs" true
    (Trace_io.equal_packed c.Run.packed_trace (Trace_io.Mapped.trace m));
  (* replay straight off the map, lazy validation in the epoch hook *)
  let m2 = Trace_io.map_packed path in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Run.scheme_name kind ^ ": mapped replay identical")
        true
        (Run.simulate_mapped kind m2 = Run.simulate_packed kind c.Run.packed_trace))
    [ Run.Base; Run.TPI; Run.HW ];
  Sys.remove path

let test_mmap_lazy_validation () =
  (* a corrupt byte in the last epoch's slab span: the map opens, early
     epochs validate, and the damage surfaces — as a typed [Corrupt] —
     only when validation reaches the chunk that covers it *)
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:3 ()) in
  let p = c.Run.packed_trace in
  let n_eps = Array.length p.Trace.p_epochs in
  Alcotest.(check bool) "fixture has several epochs" true (n_eps > 2);
  Alcotest.(check bool) "fixture spans several chunks" true (p.Trace.n_slots > 256);
  let path = tmp "hscd_map_lazy.hscdtrc" in
  (* a small chunk granule so the fixture covers many chunks per slab *)
  Trace_io.write_packed ~chunk_words:64 path p;
  (* the latest live slot and the epoch owning it (slab capacity may pad
     past the last task, and padding slots belong to no epoch) *)
  let target_epoch = ref 0 and target_slot = ref 0 in
  Array.iteri
    (fun e (pe : Trace.pepoch) ->
      Array.iter
        (fun (t : Trace.ptask) ->
          if t.Trace.off + t.Trace.len > !target_slot + 1 then begin
            target_slot := t.Trace.off + t.Trace.len - 1;
            target_epoch := e
          end)
        pe.Trace.p_tasks)
    p.Trace.p_epochs;
  Alcotest.(check bool) "damage lands outside epoch 0's chunks" true (!target_epoch > 0);
  (* flip a byte of the target slot's word in the last (arrs) slab; the
     file ends exactly at the slab region's end, so offsets resolve from
     the tail without knowing the header size *)
  let file_len = (Unix.stat path).Unix.st_size in
  let n = p.Trace.n_slots in
  Hscd_check.Fault.Chaos.corrupt_file path
    ~byte:(file_len - ((n - !target_slot) * 8) + 3);
  let m = Trace_io.map_packed path in
  Trace_io.Mapped.validate_epoch m 0;
  (match Trace_io.Mapped.validate_epoch m !target_epoch with
  | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Corrupt; _ } -> ()
  | exception e ->
    Alcotest.fail ("expected Corrupt from the damaged epoch, got " ^ Printexc.to_string e)
  | () -> Alcotest.fail "damaged epoch validated");
  (* a fresh map still opens; validating everything finds the damage *)
  let m2 = Trace_io.map_packed path in
  (match Trace_io.Mapped.validate_all m2 with
  | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Corrupt; _ } -> ()
  | exception e -> Alcotest.fail ("expected Corrupt from validate_all, got " ^ Printexc.to_string e)
  | () -> Alcotest.fail "validate_all accepted a damaged map");
  (* the eager reader agrees the file is bad *)
  (match Trace_io.read_packed_result path with
  | Error e ->
    Alcotest.(check bool) "eager read: corrupt kind" true (e.kind = Hscd_util.Hscd_error.Corrupt)
  | Ok _ -> Alcotest.fail "eager read accepted a damaged file");
  Sys.remove path

let test_mmap_header_corruption_rejected_eagerly () =
  (* damage in the header/descriptor section must fail at [map_packed]
     itself — only slab chunks are validated lazily *)
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.reduction ~n:16 ()) in
  let path = tmp "hscd_map_hdr.hscdtrc" in
  Trace_io.write_packed path c.Run.packed_trace;
  Hscd_check.Fault.Chaos.corrupt_file path ~byte:24;
  (match Trace_io.map_packed_result path with
  | Error e ->
    Alcotest.(check bool) "header damage: corrupt kind" true
      (e.kind = Hscd_util.Hscd_error.Corrupt)
  | Ok _ -> Alcotest.fail "map accepted a damaged header");
  (* truncation inside the slab region also fails at open: the region
     cannot be mapped at its declared size *)
  Trace_io.write_packed path c.Run.packed_trace;
  Hscd_check.Fault.Chaos.truncate_file path ~drop:16;
  (match Trace_io.map_packed_result path with
  | Error e ->
    Alcotest.(check bool) "truncated map: corrupt kind" true
      (e.kind = Hscd_util.Hscd_error.Corrupt)
  | Ok _ -> Alcotest.fail "map accepted a truncated file");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "round-trip stencil" `Quick test_roundtrip_stencil;
    Alcotest.test_case "round-trip generated fuzz traces" `Quick test_roundtrip_generated;
    Alcotest.test_case "round-trip empty and single-event" `Quick test_roundtrip_degenerate;
    Alcotest.test_case "round-trip critical" `Quick test_roundtrip_critical;
    Alcotest.test_case "corpus re-saves byte-identical" `Quick test_corpus_resave_bytes;
    Alcotest.test_case "replay equivalence" `Quick test_replay_equivalence;
    Alcotest.test_case "bad input rejected" `Quick test_bad_input_rejected;
    Alcotest.test_case "mark strings" `Quick test_mark_strings;
    Alcotest.test_case "binary round-trip: kernels" `Quick test_binary_roundtrip_kernels;
    Alcotest.test_case "binary round-trip: Perfect Club models" `Slow test_binary_roundtrip_perfect;
    Alcotest.test_case "binary round-trip: generated fuzz traces" `Quick
      test_binary_roundtrip_generated;
    Alcotest.test_case "binary replay equivalence" `Quick test_binary_replay_equivalence;
    Alcotest.test_case "binary rejects corruption" `Quick test_binary_rejects_corruption;
    Alcotest.test_case "replay rejects a ticket no task grants" `Quick
      test_replay_rejects_ungranted_ticket;
    Alcotest.test_case "mmap: round-trip and replay" `Quick test_mmap_roundtrip;
    Alcotest.test_case "mmap: lazy chunk validation" `Quick test_mmap_lazy_validation;
    Alcotest.test_case "mmap: header damage fails at open" `Quick
      test_mmap_header_corruption_rejected_eagerly;
  ]
