(** The packed (structure-of-arrays) trace form is the engine's native
    input; the boxed event stream replays through a legacy loop kept
    precisely so these tests can assert the two are bit-identical — same
    cycles, metrics, violations, traffic and final memory — for every
    scheme, over both compiled programs and the checked-in fuzz corpus.
    Plus unit tests for the symbol interner backing the [array:int]
    scheme interface. *)

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
  let boxed = Run.boxed_trace c in
  Alcotest.(check int) "event count preserved" boxed.Trace.total_events p.Trace.p_total_events;
  Alcotest.(check bool) "slots cover events" true (p.Trace.n_slots >= p.Trace.p_total_events);
  Alcotest.(check int) "parallel slabs same length" (Trace.Slab.length p.Trace.ops)
    (Trace.Slab.length p.Trace.addrs);
  Alcotest.(check int) "value slab same length" (Trace.Slab.length p.Trace.ops)
    (Trace.Slab.length p.Trace.values);
  Alcotest.(check int) "mark slab same length" (Trace.Slab.length p.Trace.ops)
    (Trace.Slab.length p.Trace.marks);
  Alcotest.(check int) "array-id slab same length" (Trace.Slab.length p.Trace.ops)
    (Trace.Slab.length p.Trace.arrs);
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

(* ---------- packed ≡ boxed, bit for bit ---------- *)

let check_equivalence ?(cfg = Config.default) name trace packed =
  List.iter
    (fun kind ->
      let rp = Run.simulate_packed ~cfg kind packed in
      let rb = Run.simulate_boxed ~cfg kind trace in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s packed = boxed" name (Run.scheme_name kind))
        true (rp = rb))
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
  Alcotest.(check bool)
    (name ^ ": unpack round-trips")
    true
    (Trace_io.equal (Trace.unpack c.Run.packed_trace) boxed);
  check_equivalence ~cfg name boxed c.Run.packed_trace

let test_equiv_stencil () = equiv_program "jacobi1d" (Kernels.jacobi1d ~n:64 ~iters:3 ())

let test_equiv_locks () = equiv_program "reduction" (Kernels.reduction ~n:48 ())

let test_equiv_matmul () = equiv_program "matmul" (Kernels.matmul ~n:10 ())

let test_equiv_dynamic_migration () =
  (* dynamic scheduling + migration exercises the PRNG draws in both
     replay loops; the draw sequences must line up exactly *)
  let cfg =
    { Config.default with processors = 8; scheduling = Config.Dynamic; migration_rate = 0.3 }
  in
  equiv_program ~cfg "gather+migration" (Kernels.gather ~n:96 ~iters:3 ())

let test_equiv_many_processors () =
  let cfg = { Config.default with processors = 32 } in
  equiv_program ~cfg "boundary@32" (Kernels.boundary_exchange ~n:128 ~iters:2 ())

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

let test_equiv_corpus () =
  List.iter (fun (f, trace) -> check_equivalence f trace (Trace.pack trace)) (corpus_files ())

let test_unpack_pack_corpus () =
  List.iter
    (fun (f, trace) ->
      Alcotest.(check bool) (f ^ ": unpack (pack t) = t") true
        (Trace_io.equal (Trace.unpack (Trace.pack trace)) trace))
    (corpus_files ())

(* ---------- streaming builder ≡ pack ---------- *)

let test_streaming_perfect_models () =
  (* the acceptance bar: every Perfect Club model (test scale), streamed
     generation vs. independent boxed generation, every scheme bit-identical *)
  List.iter
    (fun (e : Hscd_workloads.Perfect.entry) -> equiv_program e.name (e.build_small ()))
    Hscd_workloads.Perfect.all

let test_builder_requires_init () =
  let b = Trace.Builder.create () in
  (match Trace.Builder.finish b ~golden:[||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument from finish before init")

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
    Alcotest.test_case "packed=boxed: fuzz corpus" `Quick test_equiv_corpus;
    Alcotest.test_case "unpack (pack t) = t: fuzz corpus" `Quick test_unpack_pack_corpus;
    Alcotest.test_case "streaming=boxed: Perfect Club models" `Slow test_streaming_perfect_models;
    Alcotest.test_case "builder: finish before init rejected" `Quick test_builder_requires_init;
  ]
