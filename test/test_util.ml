(** Unit and property tests for the utility library. *)

module Prng = Hscd_util.Prng
module Stats = Hscd_util.Stats
module Bitset = Hscd_util.Bitset
module Ints = Hscd_util.Ints
module Table = Hscd_util.Table

let check = Alcotest.check

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let t = Prng.of_int 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let r = Prng.in_range t (-5) 5 in
    Alcotest.(check bool) "in closed range" true (r >= -5 && r <= 5)
  done

let test_prng_shuffle_permutes () =
  let t = Prng.of_int 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_float_range () =
  let t = Prng.of_int 11 in
  for _ = 1 to 1000 do
    let f = Prng.float t in
    Alcotest.(check bool) "[0,1)" true (f >= 0.0 && f < 1.0)
  done

(* --- stats --- *)

let test_stats_mean_var () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean [])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile 100.0 xs);
  check (Alcotest.float 1e-9) "p1" 1.0 (Stats.percentile 1.0 xs)

(* --- bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 50" false (Bitset.mem b 50);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal b);
  check Alcotest.(list int) "elements" [ 0; 63; 99 ] (Bitset.elements b);
  Bitset.remove b 63;
  check Alcotest.int "after remove" 2 (Bitset.cardinal b);
  Bitset.clear b;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index 10 out of [0,10)")
    (fun () -> Bitset.add b 10)

(* Random add/remove/clear scripts against a hashtable reference, over
   capacities on both sides of the 62-bit word boundary (one word, two
   words, P=1024), with indices biased towards 0, the word edges 61/62
   and capacity - 1. Each add/remove is applied 1-3 times in a row, so a
   repeated add of a present bit (or remove of an absent one) must leave
   the O(1) count alone. After every operation the set must agree with
   the reference on membership and cardinality, and [iter], [fold] and
   [elements] must all list exactly the reference's members, ascending. *)
type bitset_op = Add of int * int | Remove of int * int | Clear

let gen_bitset_script =
  QCheck.Gen.(
    let* cap = oneofl [ 1; 61; 62; 63; 124; 1024 ] in
    let edges = List.filter (fun i -> i < cap) [ 0; 61; 62; cap - 1 ] in
    let idx = oneof [ oneofl edges; int_bound (cap - 1) ] in
    let reps = int_range 1 3 in
    let op =
      frequency
        [
          (6, map2 (fun i r -> Add (i, r)) idx reps);
          (3, map2 (fun i r -> Remove (i, r)) idx reps);
          (1, return Clear);
        ]
    in
    pair (return cap) (list_size (int_bound 60) op))

let print_bitset_script (cap, ops) =
  Printf.sprintf "capacity %d: %s" cap
    (String.concat "; "
       (List.map
          (function
            | Add (i, r) -> Printf.sprintf "add %d x%d" i r
            | Remove (i, r) -> Printf.sprintf "remove %d x%d" i r
            | Clear -> "clear")
          ops))

let qcheck_bitset_vs_reference =
  QCheck.Test.make ~name:"bitset agrees with a list-based reference" ~count:300
    (QCheck.make gen_bitset_script ~print:print_bitset_script)
    (fun (cap, ops) ->
      let b = Bitset.create cap in
      let reference = Hashtbl.create 16 in
      let agrees () =
        let expected = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) reference []) in
        let iterated = ref [] in
        Bitset.iter (fun i -> iterated := i :: !iterated) b;
        (* smallest member >= i, for every i in [0, cap] *)
        let next = Array.make (cap + 1) (-1) in
        for i = cap - 1 downto 0 do
          next.(i) <- (if Hashtbl.mem reference i then i else next.(i + 1))
        done;
        List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem reference i) (List.init cap Fun.id)
        && List.for_all (fun i -> Bitset.next b i = next.(i)) (List.init (cap + 1) Fun.id)
        && Bitset.cardinal b = Hashtbl.length reference
        && Bitset.is_empty b = (expected = [])
        && List.rev !iterated = expected
        && List.rev (Bitset.fold (fun i acc -> i :: acc) b []) = expected
        && Bitset.elements b = expected
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (i, r) ->
            for _ = 1 to r do
              Bitset.add b i
            done;
            Hashtbl.replace reference i ()
          | Remove (i, r) ->
            for _ = 1 to r do
              Bitset.remove b i
            done;
            Hashtbl.remove reference i
          | Clear ->
            Bitset.clear b;
            Hashtbl.reset reference);
          agrees ())
        ops)

(* --- ints --- *)

let test_ints () =
  check Alcotest.int "ilog2 64" 6 (Ints.ilog2 64);
  Alcotest.(check bool) "pow2 checks" true (Ints.is_pow2 1 && Ints.is_pow2 4096 && not (Ints.is_pow2 12));
  check Alcotest.int "ceil_div" 4 (Ints.ceil_div 10 3);
  check Alcotest.int "ceil_div exact" 3 (Ints.ceil_div 9 3);
  check Alcotest.int "round_up" 12 (Ints.round_up 10 4)

let qcheck_round_up =
  QCheck.Test.make ~name:"round_up is a multiple and minimal" ~count:500
    QCheck.(pair (int_bound 10_000) (int_range 1 64))
    (fun (a, b) ->
      let r = Ints.round_up a b in
      r mod b = 0 && r >= a && r - a < b)

(* --- table --- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~header:[ "a"; "bb" ] ~aligns:[ Table.Left; Table.Right ] () in
  Table.add_row t [ "xx"; "1" ];
  Table.add_row t [ "y"; "222" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 6 = "== t =");
  (* right-aligned second column pads on the left *)
  Alcotest.(check bool) "alignment" true
    (List.exists (fun l -> l = "xx    1") (String.split_on_char '\n' s))

let test_table_row_mismatch () =
  let t = Table.create ~title:"t" ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row (t): expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only" ])

let test_table_fbytes () =
  check Alcotest.string "bytes" "512B" (Table.fbytes 512);
  check Alcotest.string "kb" "2.0KB" (Table.fbytes 2048);
  check Alcotest.string "mb" "4.0MB" (Table.fbytes (4 * 1024 * 1024));
  check Alcotest.string "gb" "3.0GB" (Table.fbytes (3 * 1024 * 1024 * 1024))

(* --- deque --- *)

let test_deque_fifo () =
  let d = Hscd_util.Deque.create ~capacity:2 () in
  for i = 1 to 100 do
    Hscd_util.Deque.push_back d i
  done;
  check Alcotest.int "length" 100 (Hscd_util.Deque.length d);
  for i = 1 to 100 do
    check Alcotest.(option int) "fifo order" (Some i) (Hscd_util.Deque.pop_front d)
  done;
  check Alcotest.(option int) "empty" None (Hscd_util.Deque.pop_front d);
  Hscd_util.Deque.push_back d 7;
  check Alcotest.int "pop_front_or" 7 (Hscd_util.Deque.pop_front_or d ~empty:(-1));
  check Alcotest.int "pop_front_or when empty" (-1) (Hscd_util.Deque.pop_front_or d ~empty:(-1));
  Alcotest.(check bool) "is_empty" true (Hscd_util.Deque.is_empty d)

let test_deque_wraparound () =
  (* interleaved push/pop forces head to wrap around the ring *)
  let d = Hscd_util.Deque.create ~capacity:4 () in
  let q = Queue.create () in
  let prng = Prng.of_int 99 in
  for i = 0 to 999 do
    if Prng.bool prng then begin
      Hscd_util.Deque.push_back d i;
      Queue.push i q
    end
    else
      check
        Alcotest.(option int)
        "matches Queue" (Queue.take_opt q) (Hscd_util.Deque.pop_front d)
  done;
  check Alcotest.(list int) "drain" (List.of_seq (Queue.to_seq q)) (Hscd_util.Deque.to_list d)

(* --- minheap --- *)

let test_minheap_sorted () =
  let h = Hscd_util.Minheap.create 4 in
  let prng = Prng.of_int 5 in
  let keys = List.init 200 (fun i -> (Prng.int prng 50, i)) in
  List.iter (fun (k, v) -> Hscd_util.Minheap.push h ~key:k v) keys;
  let rec drain acc = match Hscd_util.Minheap.pop h with None -> List.rev acc | Some kv -> drain (kv :: acc) in
  let out = drain [] in
  check Alcotest.int "all popped" 200 (List.length out);
  (* sorted by key, ties by value — the engine's lowest-clock,
     lowest-index processor order *)
  check
    Alcotest.(list (pair int int))
    "heap order = sorted order" (List.sort compare keys) out

let test_minheap_ties_by_value () =
  let h = Hscd_util.Minheap.create 4 in
  List.iter (fun v -> Hscd_util.Minheap.push h ~key:7 v) [ 3; 0; 2; 1 ];
  let vs = List.init 4 (fun _ -> match Hscd_util.Minheap.pop h with Some (_, v) -> v | None -> -1) in
  check Alcotest.(list int) "lowest index first" [ 0; 1; 2; 3 ] vs;
  Alcotest.(check bool) "empty" true (Hscd_util.Minheap.is_empty h)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "prng float" `Quick test_prng_float_range;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    QCheck_alcotest.to_alcotest qcheck_bitset_vs_reference;
    Alcotest.test_case "ints" `Quick test_ints;
    QCheck_alcotest.to_alcotest qcheck_round_up;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table fbytes" `Quick test_table_fbytes;
    Alcotest.test_case "deque fifo" `Quick test_deque_fifo;
    Alcotest.test_case "deque wraparound" `Quick test_deque_wraparound;
    Alcotest.test_case "minheap sorted" `Quick test_minheap_sorted;
    Alcotest.test_case "minheap ties" `Quick test_minheap_ties_by_value;
  ]
