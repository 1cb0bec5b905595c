(** Round-trip tests for the trace serializer, plus replay equivalence:
    simulating a reloaded trace must give identical results. *)

module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io
module Metrics = Hscd_sim.Metrics

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* write the text form straight from a compiled packed trace and load it
   back: the result must equal the original structurally *)
let text_roundtrip name prog =
  let p = (Run.compile prog).Run.packed_trace in
  let path = tmp ("hscd_trace_" ^ name ^ ".txt") in
  Trace_io.save path p;
  let loaded = Trace_io.load path in
  Sys.remove path;
  Alcotest.(check bool) (name ^ " round-trip equal") true (Trace_io.equal_packed loaded p);
  Alcotest.(check int) (name ^ " events preserved") p.Trace.p_total_events
    loaded.Trace.p_total_events;
  (p, loaded)

let test_roundtrip_stencil () =
  ignore (text_roundtrip "stencil" (Hscd_workloads.Kernels.jacobi1d ~n:32 ~iters:2 ()))

let test_roundtrip_critical () =
  (* locks and bypass marks must survive serialization *)
  ignore (text_roundtrip "crit" (Hscd_workloads.Kernels.reduction ~n:16 ()))

(* every built-in program at the scale [hscd trace] dumps it *)
let test_roundtrip_programs () =
  List.iter
    (fun name ->
      match Hscd_workloads.Programs.find name with
      | Some build -> ignore (text_roundtrip name (build ()))
      | None -> Alcotest.fail (name ^ ": not found"))
    Hscd_workloads.Programs.names

let test_replay_equivalence () =
  let p, loaded = text_roundtrip "mm" (Hscd_workloads.Kernels.matmul ~n:10 ()) in
  let a = Run.simulate_packed Run.TPI p in
  let b = Run.simulate_packed Run.TPI loaded in
  Alcotest.(check int) "same cycles" a.cycles b.cycles;
  Alcotest.(check (float 1e-12)) "same miss rate"
    (Metrics.miss_rate a.metrics) (Metrics.miss_rate b.metrics);
  Alcotest.(check int) "coherent" 0 b.metrics.violations

(* [text] must fail to load with a typed [Parse] error, which is
   returned; [line]: the malformed line, which the error must name *)
let parse_error ?line name text =
  let path = tmp "hscd_trace_bad.txt" in
  let oc = open_out_bin path in
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
  let result = Trace_io.load_result path in
  Sys.remove path;
  match result with
  | Error e ->
    Alcotest.(check bool) (name ^ ": load_result parse kind") true
      (e.kind = Hscd_util.Hscd_error.Parse);
    e
  | Ok _ -> Alcotest.fail (name ^ ": load_result accepted a malformed trace")

let expect_parse ?line name text = ignore (parse_error ?line name text)

let test_bad_input_rejected () =
  expect_parse "nonsense line" "hscd-trace 1\nnonsense line here\n";
  (* well-formed lines whose fields the replay would index out of range *)
  let header = "hscd-trace 1\nwords 4\narray a 0 4\n" in
  let body = "epoch serial\ntask 0\n" in
  expect_parse ~line:"6: R 999 N 0 a" "read address past words" (header ^ body ^ "R 999 N 0 a\n");
  expect_parse ~line:"6: W -1 N 0 a" "negative write address" (header ^ body ^ "W -1 N 0 a\n");
  expect_parse ~line:"4: golden 9 5" "golden index past words" (header ^ "golden 9 5\n" ^ body ^ "R 1 N 0 a\n");
  expect_parse ~line:"6: C -100000" "negative compute count"
    (header ^ body ^ "C -100000\nW 1 N 5 a\nR 1 N 5 a\n");
  expect_parse ~line:"6: R 1 N 0 zz" "undeclared array name" (header ^ body ^ "R 1 N 0 zz\n");
  (* events that belong to no task *)
  expect_parse ~line:"4: task 0" "task before any epoch" (header ^ "task 0\nW 0 N 5 a\nepoch serial\n");
  expect_parse ~line:"5: W 0 N 5 a" "event before any task" (header ^ "epoch serial\nW 0 N 5 a\n");
  (* the first epoch line fixes the layout: header lines after it are
     rejected at their line *)
  expect_parse ~line:"6: words 8" "words after the first epoch" (header ^ body ^ "words 8\n");
  expect_parse ~line:"6: array b 4 4" "array after the first epoch" (header ^ body ^ "array b 4 4\n");
  expect_parse ~line:"6: golden 1 5" "golden after the first epoch" (header ^ body ^ "golden 1 5\n");
  expect_parse ~line:"3: golden 1 5" "golden before words" "hscd-trace 1\narray a 0 4\ngolden 1 5\n";
  expect_parse ~line:"4: words 8" "words twice" (header ^ "words 8\n");
  expect_parse ~line:"4: array a 4 4" "array declared twice" (header ^ "array a 4 4\n");
  (* malformed fields: a bad integer, a bad or negative Time-Read mark,
     a bad array entry and a negative size *)
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
  (* [words] passes the arrays' extent by at most one widest line's
     padding: a two-line file must not size the golden image *)
  let e =
    parse_error ~line:"4: epoch serial" "words past the arrays' extent"
      "hscd-trace 1\nwords 50000000\narray a 0 4\nepoch serial\n"
  in
  let names n = List.mem (string_of_int n) (String.split_on_char ' ' e.message) in
  Alcotest.(check bool) ("names both sizes: " ^ e.message) true (names 50000000 && names 16);
  expect_parse "words past no arrays" "hscd-trace 1\nwords 50000000\n";
  let path = tmp "hscd_trace_padded.txt" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "hscd-trace 1\nwords 16\narray a 0 4\ngolden 15 7\n");
  let p = Trace_io.load path in
  Sys.remove path;
  Alcotest.(check (array int)) "one line's padding loads" (Array.init 16 (fun i -> if i = 15 then 7 else 0))
    p.Trace.p_golden

(* the header is line 1 and only line 1 *)
let test_header_missing () =
  expect_parse ~line:"1: words 4" "header last"
    "words 4\narray A 0 4\nepoch serial\ntask 0\nW 0 N 5 A\nhscd-trace 1\n";
  expect_parse ~line:"1: words 4" "no header" "words 4\narray A 0 4\n";
  expect_parse ~line:"1: " "empty file" ""

let test_header_twice () =
  expect_parse ~line:"3: hscd-trace 1" "header twice"
    "hscd-trace 1\nwords 4\nhscd-trace 1\narray A 0 4\n"

let test_old_binary_rejected () =
  (* a file in the removed binary format: its magic, then raw words *)
  let raw = "\x07\x00\x00\x00\x00\x00\x00\x00\xff\x01" in
  let e = parse_error "old binary dump" ("HSCDTRC3" ^ raw ^ "\n" ^ raw) in
  let msg = Hscd_util.Hscd_error.to_string e in
  Alcotest.(check string) "at line 1, its bytes not echoed" "line 1" (List.hd e.context);
  let mentions sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("names the format: " ^ msg) true (mentions "HSCDTRC3");
  Alcotest.(check bool) ("points to hscd trace: " ^ msg) true (mentions "hscd trace");
  Alcotest.(check bool) ("no raw bytes: " ^ msg) false (mentions raw || mentions "\xff")

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
    let p = Trace.pack trace in
    Trace_io.save path p;
    let loaded = Trace_io.load path in
    Sys.remove path;
    Alcotest.(check bool)
      (Printf.sprintf "generated trace %d round-trips" seed)
      true
      (Trace_io.equal_packed loaded p)
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
      let p = Trace.pack trace in
      Trace_io.save path p;
      let loaded = Trace_io.load path in
      Sys.remove path;
      Alcotest.(check bool) (name ^ " round-trips") true (Trace_io.equal_packed loaded p))
    [ ("empty", empty); ("single", single) ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let test_corpus_resave_bytes () =
  (* the writer is pinned byte for byte: re-saving each checked-in corpus
     trace reproduces the file exactly *)
  let dir = corpus_dir () in
  let files =
    List.filter (fun f -> Filename.check_suffix f ".trace") (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let src = Filename.concat dir f in
      let path = tmp ("hscd_resave_" ^ f) in
      Trace_io.save path (Trace_io.load src);
      let bytes = read_file path in
      Sys.remove path;
      Alcotest.(check bool) (f ^ " re-saved byte-identical") true (bytes = read_file src))
    (List.sort compare files)

(* A lock slot waits for a ticket that only an earlier unlock grants. A
   task that never unlocks (text), or locked tasks that each claim one
   ticket more than they hold while their ranges still tile (a crafted
   packed trace), leave a processor parked at the barrier: replay must
   fail [Corrupt] instead of dropping the parked slots. *)
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
  expect_corrupt_replay "task without unlock" (fun () -> Run.simulate_packed Run.TPI loaded);
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
  expect_corrupt_replay "one ticket more per task" (fun () ->
      Run.simulate_packed Run.TPI { locked with Trace.p_epochs; p_max_tickets })

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
  (* the top of the address field, through pack alone: loading a text
     trace builds its [words]-word golden image, 8 GiB at this size *)
  let words = Trace.max_memory_words in
  check_limit_fields "pack" ~words (Trace.pack (limits_trace ~words));
  (* every other field at its limit through the text format *)
  let words = Trace.max_arrays + 1 in
  let p = Trace.pack (limits_trace ~words) in
  check_limit_fields "pack, small memory" ~words p;
  let path = tmp "hscd_limits.txt" in
  Trace_io.save path p;
  let q = Trace_io.load path in
  Sys.remove path;
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
  pack "memory size" { t with Trace.layout = { t.Trace.layout with Shape.total_words = too_big } }

let suite =
  [
    Alcotest.test_case "round-trip stencil" `Quick test_roundtrip_stencil;
    Alcotest.test_case "round-trip generated fuzz traces" `Quick test_roundtrip_generated;
    Alcotest.test_case "round-trip empty and single-event" `Quick test_roundtrip_degenerate;
    Alcotest.test_case "round-trip critical" `Quick test_roundtrip_critical;
    Alcotest.test_case "round-trip every built-in program" `Quick test_roundtrip_programs;
    Alcotest.test_case "corpus re-saves byte-identical" `Quick test_corpus_resave_bytes;
    Alcotest.test_case "replay equivalence" `Quick test_replay_equivalence;
    Alcotest.test_case "bad input rejected" `Quick test_bad_input_rejected;
    Alcotest.test_case "mark strings" `Quick test_mark_strings;
    Alcotest.test_case "header required on line 1" `Quick test_header_missing;
    Alcotest.test_case "header only on line 1" `Quick test_header_twice;
    Alcotest.test_case "old binary dump rejected" `Quick test_old_binary_rejected;
    Alcotest.test_case "replay rejects a ticket no task grants" `Quick
      test_replay_rejects_ungranted_ticket;
    Alcotest.test_case "slot fields round-trip at their limits" `Quick test_slot_limits_roundtrip;
    Alcotest.test_case "slot limits are typed errors" `Quick test_slot_limits_rejected;
  ]
