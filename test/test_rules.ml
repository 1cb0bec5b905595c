(** Tests of {!Hscd_check.Rules}, the compiler's marking and race rules:
    the Time-Read window (one epoch tighter under migration), Normal
    reads only from a processor with a provably current copy, and the
    race cases {!Golden.lint} rejects. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Trace = Hscd_sim.Trace
module Shape = Hscd_lang.Shape
module Rules = Hscd_check.Rules
module Golden = Hscd_check.Golden

let static_cfg = Config.validate { Config.default with processors = 2 }

let migration_cfg =
  Config.validate
    { Config.default with processors = 2; scheduling = Config.Dynamic; migration_rate = 0.3 }

let sound rules ?proc addr mark = Rules.check_read rules ~proc addr mark = None

(* word 0 written by task 0 on processor 0 in epoch 0, then [dist]
   boundaries *)
let written_then ~dist cfg =
  let rules = Rules.create cfg ~words:4 in
  Rules.write rules ~task:0 ~proc:(Rules.known_proc rules ~serial:false ~ntasks:2 0)
    ~in_cs:false 0;
  for _ = 1 to dist do
    Rules.advance rules
  done;
  rules

let test_window () =
  let rules = written_then ~dist:2 static_cfg in
  Alcotest.(check (option int)) "window is the distance" (Some 2) (Rules.window rules 0);
  Alcotest.(check bool) "Time_read dist sound" true (sound rules 0 (Event.Time_read 2));
  Alcotest.(check bool) "Time_read (dist+1) rejected" false (sound rules 0 (Event.Time_read 3));
  Alcotest.(check (option int)) "never written: no window" None (Rules.window rules 1);
  Alcotest.(check bool) "never written: any distance" true (sound rules 1 (Event.Time_read 9))

let test_migration_window () =
  List.iter
    (fun dist ->
      let rules = written_then ~dist migration_cfg in
      Alcotest.(check bool)
        (Printf.sprintf "migration: Time_read %d rejected" dist)
        false
        (sound rules 0 (Event.Time_read dist));
      Alcotest.(check bool)
        (Printf.sprintf "migration: Time_read %d sound" (dist - 1))
        true
        (sound rules 0 (Event.Time_read (dist - 1))))
    [ 1; 2; 5 ];
  (* a same-epoch read after the task's own write stays sound *)
  let rules = written_then ~dist:0 migration_cfg in
  Alcotest.(check bool) "migration: Time_read 0 after own write" true
    (sound rules 0 (Event.Time_read 0))

let test_normal_read () =
  let rules = Rules.create static_cfg ~words:4 in
  Alcotest.(check bool) "never written: Normal sound anywhere" true
    (sound rules 0 Event.Normal_read);
  Rules.write rules ~task:1 ~proc:(Some 1) ~in_cs:false 0;
  Alcotest.(check bool) "Normal of a word another processor wrote" false
    (sound rules ~proc:0 0 Event.Normal_read);
  Alcotest.(check bool) "Unmarked likewise" false (sound rules ~proc:0 0 Event.Unmarked);
  Alcotest.(check bool) "writer's own copy is current" true
    (sound rules ~proc:1 0 Event.Normal_read);
  Alcotest.(check bool) "unknown processor" false (sound rules 0 Event.Normal_read);
  Rules.advance rules;
  Rules.read rules ~task:0 ~proc:(Some 0) ~in_cs:false 0 (Event.Time_read 1);
  Alcotest.(check bool) "a Time_read leaves the reader current" true
    (sound rules ~proc:0 0 Event.Normal_read);
  Alcotest.(check bool) "Bypass always sound" true (sound rules 0 Event.Bypass_read);
  Alcotest.(check (option int)) "no known processor under migration" None
    (Rules.known_proc (Rules.create migration_cfg ~words:1) ~serial:false ~ntasks:2 0)

(* one parallel epoch of two tasks over an 8-word array *)
let lint tasks =
  let layout =
    let arrays = Hashtbl.create 1 in
    Hashtbl.replace arrays "A" { Shape.name = "A"; dims = [ 8 ]; size = 8; base = 0 };
    { Shape.arrays; total_words = 8 }
  in
  let tasks = Array.mapi (fun iter evs -> { Trace.iter; events = Array.of_list evs }) tasks in
  Golden.lint
    (Golden.resolve
       {
         Trace.epochs = [| { Trace.kind = Trace.Parallel { lo = 0; hi = 1 }; tasks } |];
         layout;
         golden_memory = Array.make 8 0;
         total_events = 0;
       })

let rd ?(mark = Event.Time_read 0) addr = Event.Read { addr; mark; value = 0; array = "A" }
let wr ?(mark = Event.Normal_write) addr = Event.Write { addr; mark; value = addr + 1; array = "A" }

let rejected name tasks =
  Alcotest.(check bool) (name ^ " rejected") true (lint tasks <> [])

let test_lint_races () =
  Alcotest.(check (list string)) "read sharing and private writes are clean" []
    (lint [| [ rd 0; wr 1; rd 1 ]; [ rd 0; wr 2 ] |]);
  rejected "read then foreign write" [| [ rd 0 ]; [ wr 0 ] |];
  rejected "foreign write then read" [| [ wr 0 ]; [ rd 0 ] |];
  rejected "two writers" [| [ wr 0 ]; [ wr 0 ] |];
  rejected "critical-section and plain accesses mixed"
    [|
      [ Event.Lock; rd ~mark:Event.Bypass_read 0; wr ~mark:Event.Bypass_write 0; Event.Unlock ];
      [ rd 0 ];
    |];
  Alcotest.(check (list string)) "critical sections alone are clean" []
    (lint
       [|
         [ Event.Lock; rd ~mark:Event.Bypass_read 0; wr ~mark:Event.Bypass_write 0; Event.Unlock ];
         [ Event.Lock; wr ~mark:Event.Bypass_write 0; Event.Unlock ];
       |])

let suite =
  [
    Alcotest.test_case "Time-Read window" `Quick test_window;
    Alcotest.test_case "migration window one epoch tighter" `Quick test_migration_window;
    Alcotest.test_case "Normal reads need a current copy" `Quick test_normal_read;
    Alcotest.test_case "lint rejects races" `Quick test_lint_races;
  ]
