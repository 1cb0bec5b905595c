(** Tests of the differential fuzzer itself: generator determinism and
    soundness, a clean oracle over random traces, mutation testing (every
    injected coherence bug must be caught), shrinking quality, and the
    seed-corpus round trip. *)

module Config = Hscd_arch.Config
module Prng = Hscd_util.Prng
module Run = Hscd_sim.Run
module Trace_io = Hscd_sim.Trace_io
module Gen = Hscd_check.Gen
module Golden = Hscd_check.Golden
module Oracle = Hscd_check.Oracle
module Fault = Hscd_check.Fault
module Fuzz = Hscd_check.Fuzz
module Shrink = Hscd_check.Shrink

let same_trace a b = Trace_io.equal_packed (Hscd_sim.Trace.pack a) (Hscd_sim.Trace.pack b)

let gen_at seed =
  let prng = Prng.of_int seed in
  let params = Gen.random_params prng in
  (params, Gen.generate prng params)

let test_determinism () =
  List.iter
    (fun seed ->
      let _, a = gen_at seed in
      let _, b = gen_at seed in
      Alcotest.(check bool) "same seed, same trace" true (same_trace a b))
    [ 1; 2; 3; 99 ]

let test_generated_sound () =
  for seed = 0 to 24 do
    let params, trace = gen_at seed in
    let cfg = Gen.cfg_of params in
    Alcotest.(check (list string)) "lint clean" [] (Golden.lint trace);
    Alcotest.(check (list string)) "marks sound" [] (Golden.mark_sound cfg trace);
    (* generate already resolves; a second resolve must be a fixpoint *)
    Alcotest.(check bool) "resolve idempotent" true
      (same_trace trace (Golden.resolve trace))
  done

let test_presets_sound () =
  List.iter
    (fun (name, params) ->
      Alcotest.(check bool) (name ^ " uses the corpus config") true
        (Gen.cfg_of params = Fuzz.corpus_cfg);
      let trace = Gen.generate (Prng.of_int 5) params in
      Alcotest.(check (list string)) (name ^ " lints clean") [] (Golden.lint trace);
      Alcotest.(check (list string)) (name ^ " marks sound") []
        (Golden.mark_sound Fuzz.corpus_cfg trace))
    Fuzz.corpus_presets

let test_oracle_clean () =
  let r = Fuzz.fuzz ~shrink:false ~seed:11 ~count:30 () in
  Alcotest.(check int) "30 iterations" 30 r.Fuzz.iterations;
  Alcotest.(check int) "no failures" 0 (List.length r.Fuzz.failures)

(* Mutation testing: graft a bug onto one scheme, expect the oracle to
   catch it within a few dozen random traces, blaming only that scheme. *)
let expect_caught ?(count = 60) fault kind =
  let r = Fuzz.fuzz ~fault:(kind, fault) ~shrink:false ~max_failures:1 ~seed:7 ~count () in
  Alcotest.(check bool) (Fault.name fault ^ " caught") true (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.(check bool) "only the faulted scheme blamed" true
        (List.for_all (( = ) kind) (Oracle.failing_schemes f.Fuzz.outcome)))
    r.Fuzz.failures

let test_catches_widened_window () = expect_caught (Fault.Stale_time_read 2) Run.TPI
let test_catches_ignored_window () = expect_caught Fault.Ignore_time_read Run.TPI
let test_catches_stuck_counter () = expect_caught Fault.Skip_epoch_boundary Run.TPI

let test_catches_corrupt_values () =
  expect_caught ~count:30 (Fault.Corrupt_read_value 5) Run.HW

let test_shrinks_to_tiny_repro () =
  let fault = (Run.TPI, Fault.Stale_time_read 2) in
  let r = Fuzz.fuzz ~fault ~max_failures:1 ~seed:7 ~count:60 () in
  match r.Fuzz.failures with
  | [] -> Alcotest.fail "injected TPI bug not caught"
  | { Fuzz.shrunk = None; _ } :: _ -> Alcotest.fail "no shrunk repro"
  | { Fuzz.shrunk = Some small; trace; _ } :: _ ->
    Alcotest.(check bool) "shrunk no larger than original" true
      (Shrink.event_count small <= Shrink.event_count trace);
    Alcotest.(check bool)
      (Printf.sprintf "repro has <= 10 events (got %d)" (Shrink.event_count small))
      true
      (Shrink.event_count small <= 10);
    (* the minimized trace must still be a well-formed, soundly marked
       input that reproduces the failure *)
    Alcotest.(check (list string)) "shrunk lints clean" [] (Golden.lint small);
    let o = Oracle.run ~fault:(fst fault, snd fault) Fuzz.corpus_cfg (Hscd_sim.Trace.pack small) in
    ignore o

let test_corpus_roundtrip () =
  let dir = Filename.temp_file "hscd_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths = Fuzz.write_corpus ~dir in
  Alcotest.(check int) "one file per preset" (List.length Fuzz.corpus_presets)
    (List.length paths);
  List.iter
    (fun (path, o) ->
      Alcotest.(check bool) (Filename.basename path ^ " replays clean") true (Oracle.ok o))
    (Fuzz.replay_corpus paths);
  (* serialization is lossless for generated traces *)
  List.iter2
    (fun path (name, params) ->
      let regenerated =
        Gen.generate (Prng.of_int (Fuzz.corpus_seed + Hashtbl.hash name)) params
      in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Trace_io.equal_packed (Trace_io.load path) (Hscd_sim.Trace.pack regenerated)))
    paths Fuzz.corpus_presets;
  List.iter Sys.remove paths;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "generated traces lint clean and sound" `Quick test_generated_sound;
    Alcotest.test_case "corpus presets sound" `Quick test_presets_sound;
    Alcotest.test_case "oracle clean on random traces" `Quick test_oracle_clean;
    Alcotest.test_case "catches widened time-read window" `Quick test_catches_widened_window;
    Alcotest.test_case "catches ignored time-read window" `Quick test_catches_ignored_window;
    Alcotest.test_case "catches stuck epoch counter" `Quick test_catches_stuck_counter;
    Alcotest.test_case "catches corrupted read values" `Quick test_catches_corrupt_values;
    Alcotest.test_case "shrinks injected bug to <= 10 events" `Quick test_shrinks_to_tiny_repro;
    Alcotest.test_case "corpus round-trip and replay" `Quick test_corpus_roundtrip;
  ]
