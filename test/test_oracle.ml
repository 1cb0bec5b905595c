(** Oracles for the interpreter itself, independent of any second
    implementation: a checked-in digest of every packed trace over a grid
    of programs and machine settings, and the exact text of every runtime
    error [Eval] can raise.

    The digest table lives in [trace_digests.expected]; on a mismatch the
    test writes the table it computed to [trace_digests.actual] next to
    the test binary, so an intended change of generated traces is
    reviewed as a diff of the two files. *)

module Ast = Hscd_lang.Ast
module Eval = Hscd_lang.Eval
module Shape = Hscd_lang.Shape
module B = Hscd_lang.Builder
module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace

(* --- packed-trace digests --- *)

(* Everything a packed trace carries, in a fixed order: each logical
   field of every live slot, field by field, the epoch and task descriptors, the mark decode table,
   the interned names, the address map and the golden memory. *)
let digest (p : Trace.packed) =
  let b = Buffer.create 65536 in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  int p.n_slots;
  int p.p_total_events;
  int p.p_max_tickets;
  List.iter
    (fun field ->
      for i = 0 to p.n_slots - 1 do
        int (field p i)
      done)
    [ Trace.op; Trace.addr; Trace.value; Trace.mark; Trace.arr ];
  Array.iter
    (fun (e : Trace.pepoch) ->
      (match e.p_kind with
      | Trace.Serial -> int (-1)
      | Trace.Parallel { lo; hi } ->
        int lo;
        int hi);
      int e.p_n_tickets;
      Array.iter
        (fun (t : Trace.ptask) ->
          int t.p_iter;
          int t.off;
          int t.len;
          int t.ticket0;
          int t.n_locks)
        e.p_tasks)
    p.p_epochs;
  Array.iter (fun m -> int (Event.Code.of_rmark m)) p.rmark_table;
  Array.iter (Buffer.add_string b) (Hscd_util.Symtab.names p.symtab);
  int p.p_layout.Shape.total_words;
  List.iter
    (fun (a : Shape.t) ->
      Buffer.add_string b a.Shape.name;
      int a.base;
      List.iter int a.dims)
    (Shape.arrays_in_order p.p_layout);
  Array.iter int p.p_golden;
  Digest.to_hex (Digest.string (Buffer.contents b))

let programs =
  List.map (fun (e : Hscd_workloads.Perfect.entry) -> (e.name, e.build_small)) Hscd_workloads.Perfect.all
  @ Hscd_workloads.Kernels.all

let settings =
  List.concat_map
    (fun line_words ->
      List.concat_map
        (fun scheduling -> List.map (fun intertask -> (line_words, scheduling, intertask)) [ true; false ])
        [ Config.Block; Config.Dynamic ])
    [ 2; 4; 8 ]

let row name (line_words, scheduling, intertask) =
  let cfg = Config.validate { Config.default with line_words; scheduling } in
  let c = Run.compile ~cfg ~intertask ~cache:false (List.assoc name programs ()) in
  Printf.sprintf "%s lw=%d %s intertask=%b %s" name line_words (Config.scheduling_name scheduling)
    intertask (digest c.Run.packed_trace)

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  List.filter (fun l -> String.trim l <> "") lines

let test_trace_digests () =
  let actual = List.concat_map (fun (name, _) -> List.map (row name) settings) programs in
  let expected = read_lines "trace_digests.expected" in
  if actual <> expected then begin
    let oc = open_out "trace_digests.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    let diff =
      List.filter (fun l -> not (List.mem l expected)) actual |> List.filteri (fun i _ -> i < 5)
    in
    Alcotest.failf "packed traces differ from trace_digests.expected (%d of %d rows differ; full table in trace_digests.actual), e.g.\n%s"
      (List.length (List.filter (fun l -> not (List.mem l expected)) actual))
      (List.length actual) (String.concat "\n" diff)
  end

(* --- Eval runtime errors, message for message ---

   Programs run unchecked, so paths sema would reject still reach the
   interpreter. *)

let expect_error exn_of p expected =
  match Eval.run p with
  | exception e -> (
    match exn_of e with
    | Some m -> Alcotest.(check string) "message" expected m
    | None -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
  | _ -> Alcotest.failf "expected error %S" expected

let runtime = function Eval.Runtime_error m -> Some m | _ -> None
let race = function Eval.Data_race m -> Some m | _ -> None
let expect_runtime p m = expect_error runtime p m

let test_undefined_scalar () =
  expect_runtime (B.simple [] [ B.assign "x" (B.var "y") ]) "scalar y used before definition"

let test_undefined_scalar_untaken () =
  (* the check fires when the read executes, not when it is compiled *)
  let p =
    B.simple [ B.array "a" [ 2 ] ]
      [ B.if_ B.(int 0 %= int 1) [ B.s1 "a" (B.int 0) (B.var "y") ] [ B.s1 "a" (B.int 0) (B.int 3) ] ]
  in
  Alcotest.(check int) "ran" 3 (Eval.peek (Eval.run p) "a" [ 0 ])

let test_oob_1 () =
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.s1 "a" (B.int 5) (B.int 0) ])
    "Shape: index 5 out of bounds [0,2) for a"

let test_oob_1_read () =
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.assign "x" (B.a1 "a" (B.int (-1))) ])
    "Shape: index -1 out of bounds [0,2) for a"

let test_oob_2 () =
  expect_runtime
    (B.simple [ B.array "a" [ 2; 3 ] ] [ B.s2 "a" (B.int 1) (B.int 3) (B.int 0) ])
    "Shape: index 3 out of bounds [0,3) for a";
  expect_runtime
    (B.simple [ B.array "a" [ 2; 3 ] ] [ B.assign "x" (B.a2 "a" (B.int 2) (B.int 0)) ])
    "Shape: index 2 out of bounds [0,2) for a"

let test_oob_n () =
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2; 2 ] ] [ B.s3 "a" (B.int 0) (B.int 0) (B.int 2) (B.int 0) ])
    "Shape: index 2 out of bounds [0,2) for a";
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2; 2 ] ] [ B.assign "x" (B.a3 "a" (B.int 0) (B.int 7) (B.int 0)) ])
    "Shape: index 7 out of bounds [0,2) for a"

let test_arity () =
  (* one and two subscripts report the arity before any bound; three or
     more check bounds along the common prefix first *)
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2 ] ] [ B.s1 "a" (B.int 9) (B.int 0) ])
    "Shape: a expects 2 subscripts, got 1";
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.assign "x" (B.a2 "a" (B.int 9) (B.int 0)) ])
    "Shape: a expects 1 subscripts, got 2";
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2 ] ] [ B.assign "x" (B.a3 "a" (B.int 1) (B.int 1) (B.int 1)) ])
    "Shape: a expects 2 subscripts, got 3";
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2 ] ] [ B.s3 "a" (B.int 1) (B.int 5) (B.int 1) (B.int 0) ])
    "Shape: index 5 out of bounds [0,2) for a";
  expect_runtime
    (B.simple [ B.array "a" [ 2; 2; 2 ] ] [ B.assign "x" (B.aref "a" []) ])
    "Shape: a expects 3 subscripts, got 0"

let test_unknown_array () =
  expect_runtime (B.simple [ B.array "a" [ 2 ] ] [ B.s1 "z" (B.int 0) (B.int 1) ]) "Shape: unknown array z";
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.assign "x" (B.a2 "z" (B.int 0) (B.int 0)) ])
    "Shape: unknown array z";
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.store "z" [ B.int 0; B.int 0; B.int 0 ] (B.int 1) ])
    "Shape: unknown array z"

let test_unknown_procedure () =
  expect_runtime (B.simple [] [ B.call "nowhere" [ B.int 1 ] ]) "call to undefined procedure nowhere"

let test_unknown_entry () =
  expect_runtime { (B.simple [] []) with Ast.entry = "absent" } "entry procedure absent not found"

let test_wrong_argument_count () =
  let p =
    B.program [ B.array "a" [ 2 ] ]
      [ B.proc "main" [] [ B.call "f" [ B.int 1; B.int 2 ] ]; B.proc "f" [ "x" ] [ B.s1 "a" (B.int 0) (B.var "x") ] ]
  in
  expect_runtime p "f expects 1 arguments, got 2"

let test_division_by_zero () =
  expect_runtime (B.simple [ B.array "a" [ 2 ] ] [ B.s1 "a" (B.int 0) B.(int 1 %/ int 0) ]) "division by zero"

let test_mod_by_zero () =
  expect_runtime (B.simple [ B.array "a" [ 2 ] ] [ B.s1 "a" (B.int 0) B.(int 1 %% int 0) ]) "mod by zero"

let test_negative_work () =
  expect_runtime (B.simple [] [ B.work_e (B.int (-1)) ]) "work with negative cycle count -1"

let test_nested_critical () =
  expect_runtime
    (B.simple [ B.array "a" [ 2 ] ] [ B.critical [ B.critical [ B.s1 "a" (B.int 0) (B.int 1) ] ] ])
    "nested critical sections are not allowed"

let test_nested_doall () =
  expect_runtime
    (B.simple [ B.array "a" [ 4 ] ]
       [ B.doall "i" (B.int 0) (B.int 1) [ B.doall "j" (B.int 0) (B.int 1) [ B.s1 "a" (B.var "j") (B.int 1) ] ] ])
    "nested doall survived normalization"

let test_step_limit () =
  let p = B.simple [ B.array "a" [ 2 ] ] [ B.do_ "i" (B.int 0) (B.int 1000) [ B.s1 "a" (B.int 0) (B.int 1) ] ] in
  match Eval.run ~max_steps:100 p with
  | exception Eval.Runtime_error m ->
    Alcotest.(check string) "message" "execution exceeded 100 steps (non-terminating program?)" m
  | _ -> Alcotest.fail "step limit not enforced"

(* Two tasks: iteration 0 runs [first], then iteration 1 runs [second];
   every race below is found at task 1's access to word 0 of [a]. *)
let two_tasks first second =
  B.simple [ B.array "a" [ 4 ]; B.array "b" [ 4 ] ]
    [ B.doall "i" (B.int 0) (B.int 1) [ B.if_ B.(var "i" %= int 0) first second ] ]

let expect_race kind first second =
  expect_error race (two_tasks first second)
    (Printf.sprintf "data race on a (word 0): %s by tasks 1 and 0 in the same epoch" kind)

let write_a = B.s1 "a" (B.int 0) (B.int 5)
let read_a = B.s1 "b" (B.var "i") (B.a1 "a" (B.int 0))

let test_race_kinds () =
  expect_race "write/write" [ write_a ] [ write_a ];
  expect_race "read/write" [ write_a ] [ read_a ];
  expect_race "write/read" [ read_a ] [ write_a ];
  expect_race "critical access vs. unsynchronized write" [ write_a ] [ B.critical [ read_a ] ];
  expect_race "critical write vs. unsynchronized read" [ read_a ] [ B.critical [ write_a ] ];
  expect_race "unsynchronized access vs. critical write" [ B.critical [ write_a ] ] [ read_a ];
  expect_race "unsynchronized write vs. critical read" [ B.critical [ read_a ] ] [ write_a ]

let test_hooks_before_error () =
  (* subscripts, then the stored value, then the address check: both
     reads reach the hooks before the out-of-bounds store fails *)
  let seen = ref [] in
  let hooks =
    { Eval.null_hooks with Eval.on_read = (fun ~array:_ ~addr ~value:_ ~mark:_ -> seen := addr :: !seen) }
  in
  let p =
    B.simple [ B.array "a" [ 4 ] ] [ B.s1 "a" B.(a1 "a" (int 1) %+ int 9) (B.a1 "a" (B.int 2)) ]
  in
  (match Eval.run ~hooks p with
  | exception Eval.Runtime_error m -> Alcotest.(check string) "message" "Shape: index 9 out of bounds [0,4) for a" m
  | _ -> Alcotest.fail "expected out of bounds");
  Alcotest.(check (list int)) "reads" [ 1; 2 ] (List.rev !seen)

let suite =
  Alcotest.test_case "packed trace digests" `Quick test_trace_digests
  :: List.map
       (fun (name, f) -> Alcotest.test_case name `Quick f)
       [
         ("undefined scalar", test_undefined_scalar);
         ("undefined scalar not executed", test_undefined_scalar_untaken);
         ("out of bounds, 1 subscript store", test_oob_1);
         ("out of bounds, 1 subscript read", test_oob_1_read);
         ("out of bounds, 2 subscripts", test_oob_2);
         ("out of bounds, n subscripts", test_oob_n);
         ("arity mismatch", test_arity);
         ("unknown array", test_unknown_array);
         ("unknown procedure", test_unknown_procedure);
         ("unknown entry", test_unknown_entry);
         ("wrong argument count", test_wrong_argument_count);
         ("division by zero", test_division_by_zero);
         ("mod by zero", test_mod_by_zero);
         ("negative work", test_negative_work);
         ("nested critical", test_nested_critical);
         ("nested doall", test_nested_doall);
         ("step limit", test_step_limit);
         ("data race kinds", test_race_kinds);
         ("hooks before error", test_hooks_before_error);
       ]
