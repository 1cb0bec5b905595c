(** The packed (structure-of-arrays) trace form is the engine's native
    input and the only form production code generates or replays. The
    boxed generator ([Trace.of_program] + [Trace.pack]) survives as the
    independent reference for the streaming builder: each [packed=boxed]
    case checks that the streamed trace equals the boxed trace packed,
    slot for slot, and then replays it cleanly (no violations, final
    memory correct) on all seven schemes. Those replays cover processor
    counts 1 to 1024, locks, compute slots around critical sections and
    dynamic scheduling with migration, so the clock check {!Engine.run}
    makes at every barrier runs over each of them. The engine's ready
    queue is checked against a sorted-list model. Plus unit tests for the
    symbol interner backing the [array:int] scheme interface. *)

module Config = Hscd_arch.Config
module Run = Hscd_sim.Run
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io
module Symtab = Hscd_util.Symtab
module Kernels = Hscd_workloads.Kernels

(* ---------- Symtab ---------- *)

let test_symtab_dense_ids () =
  let t = Symtab.create () in
  Alcotest.(check int) "first id" 0 (Symtab.intern t "a");
  Alcotest.(check int) "second id" 1 (Symtab.intern t "b");
  Alcotest.(check int) "re-intern is stable" 0 (Symtab.intern t "a");
  Alcotest.(check int) "third id" 2 (Symtab.intern t "c");
  Alcotest.(check int) "length" 3 (Symtab.length t)

let test_symtab_roundtrip () =
  let names = [ "x"; "y"; "velocity"; "p" ] in
  let t = Symtab.of_names names in
  List.iteri
    (fun i n ->
      Alcotest.(check int) ("id of " ^ n) i (Symtab.id t n);
      Alcotest.(check string) ("name of " ^ string_of_int i) n (Symtab.name t i))
    names;
  Alcotest.(check (array string)) "names in id order" (Array.of_list names) (Symtab.names t)

let test_symtab_duplicates_collapse () =
  let t = Symtab.of_names [ "a"; "b"; "a"; "c"; "b" ] in
  Alcotest.(check int) "length" 3 (Symtab.length t);
  Alcotest.(check int) "a" 0 (Symtab.id t "a");
  Alcotest.(check int) "c" 2 (Symtab.id t "c")

let test_symtab_unknown () =
  let t = Symtab.of_names [ "a" ] in
  Alcotest.(check (option int)) "find_opt unknown" None (Symtab.find_opt t "zz");
  Alcotest.(check bool) "mem known" true (Symtab.mem t "a");
  Alcotest.(check bool) "mem unknown" false (Symtab.mem t "zz");
  Alcotest.check_raises "id of unknown raises" (Invalid_argument "Symtab: unknown symbol zz")
    (fun () -> ignore (Symtab.id t "zz"));
  Alcotest.check_raises "name out of range raises" (Invalid_argument "Symtab: id 7 out of [0,1)")
    (fun () -> ignore (Symtab.name t 7))

(* ---------- packed form structure ---------- *)

let test_pack_structure () =
  let c = Run.compile (Kernels.jacobi1d ~n:64 ~iters:2 ()) in
  let p = c.Run.packed_trace in
  let boxed = Trace.of_program ~line_words:Config.default.Config.line_words c.Run.marked in
  Alcotest.(check int) "event count preserved" boxed.Trace.total_events p.Trace.p_total_events;
  Alcotest.(check bool) "slots cover events" true (p.Trace.n_slots >= p.Trace.p_total_events);
  Alcotest.(check int) "two words per slot" (2 * p.Trace.n_slots) (Trace.Slab.length p.Trace.slots);
  Alcotest.(check int) "pack: two words per slot" (2 * p.Trace.n_slots)
    (Trace.Slab.length (Trace.pack boxed).Trace.slots);
  Alcotest.(check int) "epoch count preserved"
    (Array.length boxed.Trace.epochs)
    (Array.length p.Trace.p_epochs);
  (* the interner is seeded with the layout's arrays in declaration order,
     so ids index layout-ordered per-array tables densely *)
  List.iteri
    (fun i (a : Hscd_lang.Shape.t) ->
      Alcotest.(check int) ("layout id of " ^ a.Hscd_lang.Shape.name) i
        (Symtab.id p.Trace.symtab a.Hscd_lang.Shape.name))
    (Hscd_lang.Shape.arrays_in_order p.Trace.p_layout)

(* ---------- packed ≡ boxed, then clean replay ---------- *)

(* every scheme replays [packed] with no violation and the golden final
   memory; the engine's clock check runs at each of its barriers *)
let check_clean ?(cfg = Config.default) name packed =
  List.iter
    (fun kind ->
      let r = Run.simulate_packed ~cfg kind packed in
      let what = Printf.sprintf "%s/%s" name (Run.scheme_name kind) in
      Alcotest.(check int) (what ^ " violations") 0 r.Hscd_sim.Engine.metrics.violations;
      Alcotest.(check bool) (what ^ " memory") true r.memory_ok)
    Run.extended_schemes

(* the boxed trace is regenerated independently through the legacy path,
   so this differentially covers the streaming builder end to end: the
   interpreter's hook stream packed live vs. boxed events packed after *)
let equiv_program ?(cfg = Config.default) name program =
  let c = Run.compile ~cfg ~cache:false program in
  let boxed =
    Trace.of_program ~line_words:cfg.Config.line_words c.Run.marked
  in
  Alcotest.(check bool)
    (name ^ ": streaming = boxed-then-pack, structurally")
    true
    (Trace_io.equal_packed (Trace.pack boxed) c.Run.packed_trace);
  check_clean ~cfg name c.Run.packed_trace

let test_equiv_stencil () =
  equiv_program "jacobi1d" (Kernels.jacobi1d ~n:64 ~iters:3 ());
  (* the alloc_smoke P=16 input *)
  equiv_program "jacobi1d n=512" (Kernels.jacobi1d ~n:512 ~iters:2 ())

let test_equiv_locks () = equiv_program "reduction" (Kernels.reduction ~n:48 ())

let test_equiv_matmul () = equiv_program "matmul" (Kernels.matmul ~n:10 ())

let test_equiv_dynamic_migration () =
  (* dynamic scheduling + migration: migrated tails are fetched and
     resumed, two terms of the clock check *)
  let cfg =
    { Config.default with processors = 8; scheduling = Config.Dynamic; migration_rate = 0.3 }
  in
  equiv_program ~cfg "gather+migration" (Kernels.gather ~n:96 ~iters:3 ())

let test_equiv_many_processors () =
  let cfg = { Config.default with processors = 32 } in
  equiv_program ~cfg "boundary@32" (Kernels.boundary_exchange ~n:128 ~iters:2 ())

let test_equiv_one_processor () =
  (* pbits = 0: the ready-queue key is the clock itself *)
  let cfg = { Config.default with processors = 1 } in
  equiv_program ~cfg "jacobi1d@1" (Kernels.jacobi1d ~n:64 ~iters:2 ())

let test_equiv_48_processors () =
  (* not a power of two: the top key bits never see pidx 48..63 *)
  let cfg = { Config.default with processors = 48 } in
  equiv_program ~cfg "boundary@48" (Kernels.boundary_exchange ~n:192 ~iters:2 ())

(* the alloc_smoke P=1024 input *)
let test_equiv_1024_processors () =
  let cfg = { Config.default with processors = 1024 } in
  equiv_program ~cfg "jacobi1d@1024" (Kernels.jacobi1d ~n:8192 ~iters:2 ())

let test_equiv_locks_contended () =
  (* dynamic self-scheduling at P=48: many processors park on tickets
     and are re-enqueued by unlocks *)
  let cfg = { Config.default with processors = 48; scheduling = Config.Dynamic } in
  equiv_program ~cfg "reduction@48,dynamic" (Kernels.reduction ~n:192 ())

let test_equiv_migration_1024 () =
  let cfg =
    { Config.default with processors = 1024; scheduling = Config.Dynamic; migration_rate = 0.3 }
  in
  equiv_program ~cfg "gather+migration@1024" (Kernels.gather ~n:2048 ~iters:2 ())

(* at P=1024 most processors run no task of an epoch, so replay resets
   only those it uses; under dynamic scheduling the queue empties before
   every processor has claimed a task, which leaves idle processors for
   the idle count to track *)
let test_equiv_reduction_1024 () =
  List.iter
    (fun scheduling ->
      let cfg = { Config.default with processors = 1024; scheduling } in
      equiv_program ~cfg
        ("reduction@1024," ^ Config.scheduling_name scheduling)
        (Kernels.reduction ~n:1536 ()))
    [ Config.Block; Config.Dynamic ]

(* [reduction] with compute work on both sides of its critical section:
   replay folds the compute slot between a write and a [Lock] into the
   write, and the processor then parks on its ticket with the folded
   clock *)
let reduction_with_work n =
  let open Hscd_lang.Builder in
  program
    [ array "data" [ n ]; array "total" [ 1 ] ]
    [
      proc "main" []
        [
          doall "i" (int 0) (int (n - 1)) [ s1 "data" (var "i") (var "i" %% int 7); work 3 ];
          s1 "total" (int 0) (int 0);
          doall "i" (int 0)
            (int (n - 1))
            [
              s1 "data" (var "i") (var "i");
              work 5;
              critical [ s1 "total" (int 0) (a1 "total" (int 0) %+ a1 "data" (var "i")) ];
              work 2;
              s1 "data" (var "i") (int 1);
            ];
        ];
    ]

let test_equiv_work_around_locks () =
  List.iter
    (fun (processors, scheduling) ->
      let cfg = { Config.default with processors; scheduling } in
      equiv_program ~cfg
        (Printf.sprintf "reduction+work@%d,%s" processors (Config.scheduling_name scheduling))
        (reduction_with_work 1536))
    [ (16, Config.Dynamic); (1024, Config.Block); (1024, Config.Dynamic) ]

let test_clock_headroom () =
  (* a barrier this long pushes the second epoch's clock past the limit
     of 10-bit processor keys; the engine must refuse, not wrap *)
  let cfg = { Config.default with processors = 1024; barrier_cycles = max_int / 8 } in
  let c = Run.compile ~cfg (Kernels.jacobi1d ~n:64 ~iters:2 ()) in
  match Run.simulate_packed ~cfg Run.Base c.Run.packed_trace with
  | exception Hscd_util.Hscd_error.Error { kind = Hscd_util.Hscd_error.Internal; _ } -> ()
  | _ -> Alcotest.fail "expected an Internal error from the clock-headroom guard"

(* ---------- packed-key ready queue ≡ a sorted list ---------- *)

type rq_op = Push of int * int | Pop | Push_pop of int * int | Fill of int | Clear

(* [Fill] pushes to capacity and [Clear] empties the queue, so the runs
   reach a full heap (whose last left child has only the spare slot to
   its right) and reuse slots a clear gave back: a key left behind past
   the heap's size would be picked by the branchless child choice *)
let qcheck_ready_vs_sorted =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun c i -> Push (c, i)) (int_bound 200) (int_bound 1_000_000));
          (2, return Pop);
          (3, map2 (fun c i -> Push_pop (c, i)) (int_bound 200) (int_bound 1_000_000));
          (1, map (fun seed -> Fill seed) (int_bound 1_000_000));
          (1, return Clear);
        ])
  in
  let processors = QCheck.Gen.(frequency [ (1, int_range 1 1100); (2, int_range 1 40) ]) in
  let gen = QCheck.Gen.(pair processors (list_size (int_bound 300) op)) in
  QCheck.Test.make ~name:"ready queue pops in sorted order" ~count:300
    (QCheck.make gen) (fun (processors, ops) ->
      let module Ready = Hscd_sim.Engine.Ready in
      let q = Ready.create ~processors in
      (* the model: the queue's (clock, pidx) pairs in ascending order,
         the engine's lowest-clock, lowest-index order *)
      let model = ref [] in
      let model_push kv = model := List.merge compare [ kv ] !model in
      let model_pop () =
        match !model with
        | [] -> None
        | kv :: rest ->
          model := rest;
          Some kv
      in
      let unpack k = if k < 0 then None else Some (Ready.clock q k, Ready.pidx q k) in
      let pop_both () = unpack (Ready.pop q) = model_pop () in
      let push_both c i =
        Ready.push q (Ready.key q ~clock:c i);
        model_push (c, i)
      in
      let step ok op =
        ok
        &&
        match op with
        (* the queue holds at most [processors] keys, as in the engine *)
        | (Push _ | Push_pop _) when Ready.length q = processors -> pop_both ()
        | Pop -> pop_both ()
        | Push (c, i) ->
          push_both c (i mod processors);
          true
        | Push_pop (c, i) ->
          let i = i mod processors in
          let a = unpack (Ready.push_pop q (Ready.key q ~clock:c i)) in
          model_push (c, i);
          a = model_pop ()
        | Fill seed ->
          for k = Ready.length q to processors - 1 do
            push_both (seed * (k + 1) mod 211) ((seed + k) mod processors)
          done;
          Ready.length q = processors
        | Clear ->
          Ready.clear q;
          model := [];
          Ready.length q = 0 && Ready.pop q = -1
      in
      let rec drain acc = match unpack (Ready.pop q) with None -> List.rev acc | Some kv -> drain (kv :: acc) in
      List.fold_left step true ops && drain [] = !model)

let corpus_files () =
  (* cwd is test/ under `dune runtest`, the workspace root under `dune exec` *)
  let dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.map (fun f -> (f, Trace_io.load (Filename.concat dir f))) files

(* a corpus file written from a fuzz preset is regenerated boxed and
   must pack back to the loaded trace; the model-checker
   counterexamples, which no generator rebuilds, are only replayed.
   Every file replays under the configuration the corpus is written
   for, whose marks it is sound under *)
let test_equiv_corpus () =
  List.iter
    (fun (f, packed) ->
      let name = Filename.chop_suffix f ".trace" in
      Option.iter
        (fun params ->
          let boxed =
            Hscd_check.Gen.generate
              (Hscd_util.Prng.of_int (Hscd_check.Fuzz.corpus_seed + Hashtbl.hash name))
              params
          in
          Alcotest.(check bool) (f ^ ": boxed side packs to the loaded trace") true
            (Trace_io.equal_packed (Trace.pack boxed) packed))
        (List.assoc_opt name Hscd_check.Fuzz.corpus_presets);
      check_clean ~cfg:Hscd_check.Fuzz.corpus_cfg f packed)
    (corpus_files ())

(* ---------- streaming builder ≡ pack ---------- *)

let test_streaming_perfect_models () =
  (* the acceptance bar: every Perfect Club model (test scale), streamed
     generation vs. independent boxed generation, every scheme bit-identical *)
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) -> equiv_program e.name (e.build_small ()))
    Hscd_workloads.Perfect.all

(* the Perfect models carry compute slots between their accesses, and
   migration ends ranges mid-task: replay folds a compute slot into the
   event before it only when it is not a range's last, so task ends and
   queue claims keep their global order *)
let test_equiv_perfect_migration () =
  let cfg =
    { Config.default with processors = 16; scheduling = Config.Dynamic; migration_rate = 0.3 }
  in
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) ->
      equiv_program ~cfg (e.name ^ "+migration") (e.build_small ()))
    Hscd_workloads.Perfect.all

let first_read (p : Trace.packed) =
  let rec go i = if Trace.op p i = Hscd_arch.Event.Code.read then i else go (i + 1) in
  go 0

let test_builder_requires_init () =
  let b = Trace.Builder.create () in
  (match Trace.Builder.finish b ~golden:[||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument from finish before init")

let test_builder_use_after_finish () =
  let b = Trace.Builder.create () in
  let h = Trace.Builder.hooks b in
  h.Hscd_lang.Eval.on_init { Hscd_lang.Shape.arrays = Hashtbl.create 1; total_words = 1 };
  h.on_epoch_begin Hscd_lang.Eval.Serial;
  h.on_task_begin ~iter:0;
  h.on_task_end ();
  h.on_epoch_end ();
  ignore (Trace.Builder.finish b ~golden:[| 0 |]);
  match h.on_lock () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument from an emit after finish"

(* generation is an entry path of the slot limits too: each one past its
   field is a typed [Usage] error, raised before the interpreter sizes
   memory or a slot is written *)
let test_builder_slot_limits () =
  let module B = Hscd_lang.Builder in
  let module Err = Hscd_util.Hscd_error in
  let expect_usage name f =
    match f () with
    | exception Err.Error { kind = Err.Usage; _ } -> ()
    | exception e -> Alcotest.fail (name ^ ": expected a Usage error, got " ^ Printexc.to_string e)
    | _ -> Alcotest.fail (name ^ ": accepted")
  in
  let arrays n = List.init n (fun k -> B.array (Printf.sprintf "a%d" k) [ 1 ]) in
  let many = B.simple (arrays (Trace.max_arrays + 1)) [ B.s1 "a0" (B.int 0) (B.int 1) ] in
  (match Run.compile_result ~cache:false many with
  | Error e -> Alcotest.(check string) "compile: array count" "usage" (Err.kind_name e.kind)
  | Ok _ -> Alcotest.fail "compile: accepted an array count past the field");
  (* the largest legal count still compiles *)
  let most = B.simple (arrays Trace.max_arrays) [ B.s1 "a0" (B.int 0) (B.int 1) ] in
  ignore (Run.compile ~cache:false most);
  let time_read d =
    B.simple [ B.array "A" [ 4 ] ]
      [ B.s1 "A" (B.int 0) (Hscd_lang.Ast.Aref ("A", [ B.int 1 ], Hscd_lang.Ast.Time_read d)) ]
  in
  let p = Trace.of_program_packed (time_read Trace.max_time_read) in
  Alcotest.(check int) "longest time-read distance kept"
    (Hscd_arch.Event.Code.rmark_base + Trace.max_time_read)
    (Trace.mark p (first_read p));
  expect_usage "time-read distance" (fun () ->
      Trace.of_program_packed (time_read (Trace.max_time_read + 1)));
  (* memory size, through the hooks: a program this large would have the
     interpreter allocate its image first *)
  let h = Trace.Builder.hooks (Trace.Builder.create ()) in
  expect_usage "memory size" (fun () ->
      h.Hscd_lang.Eval.on_init
        { Hscd_lang.Shape.arrays = Hashtbl.create 1; total_words = Trace.max_memory_words + 1 })

let suite =
  [
    Alcotest.test_case "symtab: dense first-intern ids" `Quick test_symtab_dense_ids;
    Alcotest.test_case "symtab: intern/lookup round-trip" `Quick test_symtab_roundtrip;
    Alcotest.test_case "symtab: duplicates collapse" `Quick test_symtab_duplicates_collapse;
    Alcotest.test_case "symtab: unknown lookups" `Quick test_symtab_unknown;
    Alcotest.test_case "pack: slab structure and interning" `Quick test_pack_structure;
    Alcotest.test_case "packed=boxed: stencil, all schemes" `Quick test_equiv_stencil;
    Alcotest.test_case "packed=boxed: locks/tickets" `Quick test_equiv_locks;
    Alcotest.test_case "packed=boxed: matmul" `Quick test_equiv_matmul;
    Alcotest.test_case "packed=boxed: dynamic + migration" `Quick test_equiv_dynamic_migration;
    Alcotest.test_case "packed=boxed: 32 processors" `Quick test_equiv_many_processors;
    Alcotest.test_case "packed=boxed: 1 processor" `Quick test_equiv_one_processor;
    Alcotest.test_case "packed=boxed: 48 processors" `Quick test_equiv_48_processors;
    Alcotest.test_case "packed=boxed: 1024 processors" `Quick test_equiv_1024_processors;
    Alcotest.test_case "packed=boxed: contended locks, dynamic" `Quick test_equiv_locks_contended;
    Alcotest.test_case "packed=boxed: migration at 1024" `Quick test_equiv_migration_1024;
    Alcotest.test_case "packed=boxed: reduction at 1024" `Quick test_equiv_reduction_1024;
    Alcotest.test_case "packed=boxed: work around locks" `Quick test_equiv_work_around_locks;
    Alcotest.test_case "engine: clock headroom guard" `Quick test_clock_headroom;
    QCheck_alcotest.to_alcotest qcheck_ready_vs_sorted;
    Alcotest.test_case "packed=boxed: fuzz corpus" `Quick test_equiv_corpus;
    Alcotest.test_case "streaming=boxed: Perfect Club models" `Slow test_streaming_perfect_models;
    Alcotest.test_case "packed=boxed: Perfect models, dynamic + migration" `Quick
      test_equiv_perfect_migration;
    Alcotest.test_case "builder: finish before init rejected" `Quick test_builder_requires_init;
    Alcotest.test_case "builder: use after finish rejected" `Quick test_builder_use_after_finish;
    Alcotest.test_case "builder: slot limits are typed errors" `Quick test_builder_slot_limits;
  ]
