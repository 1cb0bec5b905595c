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
  (* [line]: the malformed line, which the error must name *)
  let expect_parse ?line name text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    (match Trace_io.load path with
    | exception Hscd_util.Hscd_error.Error ({ kind = Hscd_util.Hscd_error.Parse; _ } as e) ->
      Option.iter
        (fun l ->
          let msg = Hscd_util.Hscd_error.to_string e in
          let named = List.exists (fun c -> c = "line " ^ l) e.context in
          Alcotest.(check bool) (name ^ ": names the line in " ^ msg) true named)
        line
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
  (* malformed fields: a bad integer, a bad or negative Time-Read mark,
     and the array and size checks the binary header makes *)
  expect_parse ~line:"2: words abc" "words not a number" "hscd-trace 1\nwords abc\n";
  expect_parse ~line:"5: task x" "task not a number" (header ^ "epoch serial\ntask x\n");
  expect_parse ~line:"6: R 1 Tx 0 a" "time-read mark not a number" (header ^ body ^ "R 1 Tx 0 a\n");
  expect_parse ~line:"6: R 1 T-3 0 a" "negative time-read mark" (header ^ body ^ "R 1 T-3 0 a\n");
  expect_parse ~line:"3: array a 0 0" "zero array dimension" "hscd-trace 1\nwords 4\narray a 0 0\n";
  expect_parse ~line:"3: array a -5 4" "negative array base" "hscd-trace 1\nwords 4\narray a -5 4\n";
  expect_parse ~line:"2: words -4" "negative words" "hscd-trace 1\nwords -4\narray a 0 4\n";
  (* the packed slot fields' limits, each named at its line: a tiny file
     must not size the mark decode table, and the loader stops before it
     sizes the golden image *)
  expect_parse ~line:"6: R 1 T4000000 0 a" "time-read distance past the mark field"
    (header ^ body ^ "R 1 T4000000 0 a\n");
  expect_parse ~line:"6: R 1 T65533 0 a" "time-read distance one past the limit"
    (header ^ body ^ "R 1 T65533 0 a\n");
  expect_parse ~line:"2: words 1073741824" "words past the address field"
    "hscd-trace 1\nwords 1073741824\nnonsense\n";
  let many_arrays =
    String.concat ""
      (List.init (Trace.max_arrays + 1) (fun k -> Printf.sprintf "array a%d %d 1\n" k k))
  in
  let n = Trace.max_arrays in
  expect_parse
    ~line:(Printf.sprintf "%d: array a%d %d 1" (n + 3) n n)
    "arrays past the array-id field"
    (Printf.sprintf "hscd-trace 1\nwords %d\n" (Trace.max_arrays + 1) ^ many_arrays);
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

let first_slot (p : Trace.packed) op =
  let rec go i = if Trace.op p i = op then i else go (i + 1) in
  go 0

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
  (* a checksum-valid header naming an array with no dimensions, on a
     trace with lock sections *)
  let locked =
    (Run.compile ~cache:false (Hscd_workloads.Kernels.reduction ~n:16 ())).Run.packed_trace
  in
  let no_dims = Hashtbl.copy locked.Trace.p_layout.Hscd_lang.Shape.arrays in
  Hashtbl.filter_map_inplace (fun _ (a : Hscd_lang.Shape.t) -> Some { a with dims = [] }) no_dims;
  Trace_io.write_packed path
    { locked with Trace.p_layout = { locked.Trace.p_layout with Hscd_lang.Shape.arrays = no_dims } };
  expect_corrupt "array with no dimensions" path;
  Sys.remove path;
  (* checksum-valid files whose slot fields the replay would index out of
     range *)
  let module Code = Hscd_arch.Event.Code in
  (* the address field holds a read/write's address (in the slot's first
     word) and a compute's count (its second word) *)
  let expect_bad_slot name p op v =
    let i = first_slot p op in
    let w = if op = Code.compute then (2 * i) + 1 else 2 * i in
    let old = Trace.Slab.get p.Trace.slots w in
    Trace.Slab.set p.Trace.slots w
      (if op = Code.compute then v
       else Trace.mem_word ~op ~addr:v ~mark:(Trace.mark p i) ~arr:(Trace.arr p i));
    Trace_io.write_packed path p;
    Trace.Slab.set p.Trace.slots w old;
    expect_corrupt name path
  in
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
  Sys.remove path

let test_binary_header_damage () =
  (* a flipped byte inside the first array's name, and a file cut short
     inside the slab region, on a trace with lock sections *)
  let locked =
    (Run.compile ~cache:false (Hscd_workloads.Kernels.reduction ~n:16 ())).Run.packed_trace
  in
  let path = tmp "hscd_bin_hdr.hscdtrc" in
  Trace_io.write_packed path locked;
  Hscd_check.Fault.Chaos.corrupt_file path ~byte:24;
  expect_corrupt "array name damage" path;
  Trace_io.write_packed path locked;
  Hscd_check.Fault.Chaos.truncate_file path ~drop:16;
  expect_corrupt "slab region cut short" path;
  Sys.remove path

let test_binary_last_chunk_damage () =
  (* the chunk table covers every slab word: a byte flipped in the last
     chunk of the last slab is caught like one in the first *)
  let c = Run.compile ~cache:false (Hscd_workloads.Kernels.jacobi1d ~n:64 ~iters:3 ()) in
  let p = c.Run.packed_trace in
  Alcotest.(check bool) "fixture spans several chunks" true (p.Trace.n_slots > 256);
  let path = tmp "hscd_bin_last_chunk.hscdtrc" in
  (* a small chunk granule so the fixture covers many chunks per slab *)
  Trace_io.write_packed ~chunk_words:64 path p;
  (* the file ends with the last slab's last word *)
  let file_len = (Unix.stat path).Unix.st_size in
  Hscd_check.Fault.Chaos.corrupt_file path ~byte:(file_len - 8 + 3);
  (match Trace_io.read_packed_result path with
  | Error e ->
    Alcotest.(check bool) "corrupt kind" true (e.kind = Hscd_util.Hscd_error.Corrupt);
    Alcotest.(check string) "caught by the chunk table"
      "Trace_io: corrupt binary trace (slab chunk checksum)" e.message
  | Ok _ -> Alcotest.fail "damaged last chunk accepted");
  Sys.remove path

(* --- the slot fields at their limits --- *)

module Event = Hscd_arch.Event
module Shape = Hscd_lang.Shape
module Err = Hscd_util.Hscd_error

(* [n] one-word arrays, the last at the top of a [words]-word memory so
   it takes the largest array id and the largest address *)
let wide_layout ~n ~words : Shape.layout =
  let arrays = Hashtbl.create n in
  for k = 0 to n - 1 do
    let base = if k = n - 1 then words - 1 else k in
    let name = Printf.sprintf "a%d" k in
    Hashtbl.replace arrays name { Shape.name; dims = [ 1 ]; size = 1; base }
  done;
  { Shape.arrays; total_words = words }

(* every field at its largest legal value: the last array id, the top
   address, the longest Time-Read distance, both extreme golden values
   and a compute count past 2^40 *)
let limits_trace ~words : Trace.t =
  let n = Trace.max_arrays in
  let top = Printf.sprintf "a%d" (n - 1) and addr = words - 1 in
  let events =
    [|
      Event.Read
        { addr; mark = Event.Time_read Trace.max_time_read; value = min_int; array = top };
      Event.Compute ((1 lsl 41) + 3);
      Event.Write { addr; mark = Event.Bypass_write; value = max_int; array = top };
      Event.Lock;
      Event.Read { addr = 0; mark = Event.Bypass_read; value = -7; array = "a0" };
      Event.Unlock;
      Event.Compute max_int;
    |]
  in
  {
    Trace.epochs = [| { Trace.kind = Trace.Serial; tasks = [| { Trace.iter = 0; events } |] } |];
    layout = wide_layout ~n ~words;
    golden_memory = [| 0 |];
    total_events = 5;
  }

(* the logical fields of [limits_trace], slot by slot: (op, addr, value,
   mark, arr) *)
let limits_fields ~words =
  let module C = Event.Code in
  let top_id = Trace.max_arrays - 1 in
  [
    (C.read, words - 1, min_int, C.rmark_base + Trace.max_time_read, top_id);
    (C.compute, (1 lsl 41) + 3, 0, 0, 0);
    (C.write, words - 1, max_int, C.of_wmark Event.Bypass_write, top_id);
    (C.lock, 0, 0, 0, 0);
    (C.read, 0, -7, C.of_rmark Event.Bypass_read, 0);
    (C.unlock, 0, 0, 0, 0);
    (C.compute, max_int, 0, 0, 0);
  ]

let check_limit_fields name ~words (p : Trace.packed) =
  List.iteri
    (fun i (op, addr, value, mark, arr) ->
      let check what = Alcotest.(check int) (Printf.sprintf "%s: slot %d %s" name i what) in
      check "op" op (Trace.op p i);
      check "addr" addr (Trace.addr p i);
      check "value" value (Trace.value p i);
      check "mark" mark (Trace.mark p i);
      check "arr" arr (Trace.arr p i))
    (limits_fields ~words)

let test_slot_limits_roundtrip () =
  (* the top of the address field: pack and the binary format, which
     stores the golden image sparsely; loading a text trace builds its
     [words]-word golden image, 8 GiB at this size *)
  let words = Trace.max_memory_words in
  let p = Trace.pack (limits_trace ~words) in
  check_limit_fields "pack" ~words p;
  let path = tmp "hscd_limits.hscdtrc" in
  Trace_io.write_packed path p;
  let q = Trace_io.read_packed path in
  Sys.remove path;
  check_limit_fields "binary" ~words q;
  Alcotest.(check bool) "binary round-trip equal" true (Trace_io.equal_packed p q);
  (* every other field at its limit through the text format *)
  let words = Trace.max_arrays + 1 in
  let p = Trace.pack (limits_trace ~words) in
  check_limit_fields "pack, small memory" ~words p;
  let path = tmp "hscd_limits.txt" in
  Trace_io.save path p;
  let loaded = Trace_io.load path in
  Sys.remove path;
  let q = Trace.pack loaded in
  check_limit_fields "text" ~words q;
  (* the loader's golden image is dense, [words] long *)
  Alcotest.(check bool) "text round-trip equal" true
    (Trace_io.equal_packed p { q with Trace.p_golden = p.Trace.p_golden })

let expect_kind name kind f =
  match f () with
  | exception Err.Error e ->
    Alcotest.(check string) (name ^ ": kind") (Err.kind_name kind) (Err.kind_name e.kind)
  | exception e -> Alcotest.fail (name ^ ": untyped " ^ Printexc.to_string e)
  | _ -> Alcotest.fail (name ^ ": accepted")

let test_slot_limits_rejected () =
  let words = Trace.max_arrays + 1 in
  let t = limits_trace ~words in
  let with_event ev =
    let task = { Trace.iter = 0; events = [| ev |] } in
    { t with Trace.epochs = [| { Trace.kind = Trace.Serial; tasks = [| task |] } |] }
  in
  let read ?(array = "a0") mark = Event.Read { addr = 0; mark; value = 0; array } in
  let write addr = Event.Write { addr; mark = Event.Normal_write; value = 0; array = "a0" } in
  let pack name t = expect_kind ("pack: " ^ name) Err.Usage (fun () -> Trace.pack t) in
  pack "time-read distance" (with_event (read (Event.Time_read (Trace.max_time_read + 1))));
  pack "negative time-read distance" (with_event (read (Event.Time_read (-3))));
  pack "address past the field" (with_event (write (Trace.max_memory_words + 1)));
  pack "address below the field" (with_event (write (-(Trace.max_memory_words + 2))));
  pack "array count" { t with Trace.layout = wide_layout ~n:(Trace.max_arrays + 1) ~words };
  pack "array not in the layout, past the field" (with_event (read ~array:"zz" Event.Unmarked));
  let too_big = Trace.max_memory_words + 1 in
  pack "memory size" { t with Trace.layout = { t.Trace.layout with Shape.total_words = too_big } };
  (* checksum-valid binary headers past a field *)
  let p = Trace.pack t in
  let path = tmp "hscd_limits_bad.hscdtrc" in
  let binary name p =
    Trace_io.write_packed path p;
    expect_corrupt ("binary: " ^ name) path
  in
  let max_code = Event.Code.rmark_base + Trace.max_time_read + 1 in
  binary "rmark max code" { p with Trace.rmark_table = Event.Code.rmark_table ~max_code };
  let layout = wide_layout ~n:(Trace.max_arrays + 1) ~words in
  binary "array count" { p with Trace.p_layout = layout; symtab = Trace.symtab_of_layout layout };
  let names = List.init (Trace.max_arrays + 1) (Printf.sprintf "s%d") in
  binary "symbol count" { p with Trace.symtab = Hscd_util.Symtab.of_names names };
  binary "total words"
    { p with Trace.p_layout = { p.Trace.p_layout with Shape.total_words = too_big } };
  Sys.remove path

(* checksum-valid slots whose first or second word sets a field the
   opcode does not use; [write_packed] writes such a field as it reads *)
let test_binary_rejects_unused_fields () =
  let module Code = Event.Code in
  let p = Trace.pack (limits_trace ~words:(Trace.max_arrays + 1)) in
  let path = tmp "hscd_unused_field.hscdtrc" in
  let expect name op ~word v =
    let w = (2 * first_slot p op) + word in
    let old = Trace.Slab.get p.Trace.slots w in
    Trace.Slab.set p.Trace.slots w v;
    Trace_io.write_packed path p;
    Trace.Slab.set p.Trace.slots w old;
    expect_corrupt name path
  in
  let first_word op ~addr ~mark ~arr = (op, Trace.mem_word ~op ~addr ~mark ~arr) in
  List.iter
    (fun (name, (op, w)) -> expect name op ~word:0 w)
    [
      ("address of a lock", first_word Code.lock ~addr:3 ~mark:0 ~arr:0);
      ("address of an unlock", first_word Code.unlock ~addr:3 ~mark:0 ~arr:0);
      ("mark of a compute", first_word Code.compute ~addr:0 ~mark:1 ~arr:0);
      ("array of a compute", first_word Code.compute ~addr:0 ~mark:0 ~arr:1);
      ("array of an unlock", first_word Code.unlock ~addr:0 ~mark:0 ~arr:2);
    ];
  expect "value of a lock" Code.lock ~word:1 5;
  expect "value of an unlock" Code.unlock ~word:1 5;
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
    Alcotest.test_case "binary: header damage" `Quick test_binary_header_damage;
    Alcotest.test_case "binary: last-chunk damage" `Quick test_binary_last_chunk_damage;
    Alcotest.test_case "slot fields round-trip at their limits" `Quick test_slot_limits_roundtrip;
    Alcotest.test_case "slot limits are typed errors" `Quick test_slot_limits_rejected;
    Alcotest.test_case "binary rejects fields a slot does not use" `Quick
      test_binary_rejects_unused_fields;
  ]
