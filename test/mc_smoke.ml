(* Model-checker smoke test: exhaustively explore all seven schemes at
   the acceptance scope — 2 processors, 1 word, 2-bit timetags (the
   tightest wrap: depth 8 crosses a full 2-phase wrap cycle) — and
   demand zero counterexamples; then assert the checker's teeth by
   injecting a timetag off-by-one into TPI and requiring a
   counterexample that replays to the same violation through the timing
   engine. Every scheme's state and transition counts are pinned at
   three scopes: depth 8 with 1-word lines, and depth 5 with 2-word
   lines without and with mid-task migration. Runs under `dune runtest` and the @mc-smoke alias; exits
   non-zero on any failure. *)

module Mc = Hscd_check.Mc
module Fault = Hscd_check.Fault
module Oracle = Hscd_check.Oracle
module Run = Hscd_sim.Run

(* Pinned (states, transitions) per scheme at the two scopes below.
   States are deduplicated on each scheme's snapshot, so these counts are
   the oracle for the snapshot encoding: a change to what a snapshot
   encodes, or how, moves them. *)
let pinned_depth8 =
  [
    ("BASE", (678, 3370));
    ("SC", (1258, 5631));
    ("INV", (1756, 7839));
    ("VC", (2166, 9065));
    ("TPI", (3467, 14138));
    ("HW", (1258, 5631));
    ("LimitLESS", (1258, 5631));
  ]

let pinned_lines2_depth5 =
  [
    ("BASE", (1016, 5304));
    ("SC", (1793, 8264));
    ("INV", (2987, 13215));
    ("VC", (4928, 17175));
    ("TPI", (4472, 17292));
    ("HW", (1631, 7926));
    ("LimitLESS", (1631, 7926));
  ]

(* mid-task migration over the 2-word-line scope: VC and INV served
   stale values here until their time-reads went to memory under
   migration *)
let pinned_migration_lines2_depth5 =
  [
    ("BASE", (1017, 6044));
    ("SC", (3117, 14478));
    ("INV", (5473, 23127));
    ("VC", (8494, 29514));
    ("TPI", (8584, 31761));
    ("HW", (2927, 14216));
    ("LimitLESS", (2927, 14216));
  ]

let check_pinned pinned (r : Mc.report) =
  let name = Run.scheme_name r.Mc.kind in
  let want = List.assoc name pinned in
  let got = (r.Mc.stats.Mc.states, r.Mc.stats.Mc.transitions) in
  if got <> want then begin
    Printf.printf "mc-smoke: %s explored %d states / %d transitions, pinned %d / %d\n" name
      (fst got) (snd got) (fst want) (snd want);
    false
  end
  else true

let () =
  let jobs = Hscd_util.Pool.default_jobs () in
  let bad = ref false in
  (* full wrap window: with 2-bit tags the two-phase reset fires every 2
     epochs and tags recycle every 4; depth 8 holds a write, a full wrap
     cycle of boundaries and the boundary-distance reads after it *)
  let scope = { Mc.default_scope with Mc.depth = 8 } in
  (* multi-word lines at a shallower depth: companion fills tagged one
     epoch back, false sharing between the two words of one line *)
  let scope2 =
    { Mc.default_scope with Mc.words = 2; Mc.line_words = 2; Mc.depth = 5 }
  in
  let check_scope scope pinned =
    Printf.printf "mc-smoke: %s\n%!" (Mc.describe_scope scope);
    List.iter
      (fun kind ->
        let r = Mc.explore ~jobs scope kind in
        print_endline (Mc.describe r);
        if not (Mc.ok r && check_pinned pinned r) then bad := true)
      Run.extended_schemes
  in
  check_scope scope pinned_depth8;
  check_scope scope2 pinned_lines2_depth5;
  check_scope { scope2 with Mc.migration = true } pinned_migration_lines2_depth5;
  (* the checker must have teeth: a seeded timetag off-by-one produces a
     counterexample, and the engine replay reproduces it *)
  let fault = Fault.Stale_time_read 1 in
  let r = Mc.explore ~fault ~jobs scope Run.TPI in
  print_endline (Mc.describe r);
  (match r.Mc.counterexample with
  | None ->
    print_endline "mc-smoke: seeded fault produced NO counterexample";
    bad := true
  | Some cx ->
    let _trace, o = Mc.replay ~fault ~jobs scope cx in
    if Oracle.ok o then begin
      print_endline "mc-smoke: engine replay did not reproduce the seeded fault";
      bad := true
    end
    else Printf.printf "mc-smoke: seeded fault found and engine-reproduced\n");
  if !bad then exit 1
