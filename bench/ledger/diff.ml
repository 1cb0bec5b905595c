(** [ledger.exe diff A.json ... -- B.json ...]: for every workload and
    end-to-end metric, each side's median and quartiles and a verdict,
    following the rules for comparing two commits in a small sandbox:

    - [unresolved]: either side's spread (quartile distance over median)
      is wider than the metric's bound, and not every B run reads better
      than every A run;
    - [worse]: B's median is worse than A's by more than the bound;
    - [better]: B wins at least nine tenths of the index-paired runs and
      its median beats A's by more than A's quartile distance; when the
      spread is wider than the bound, only if every B run beats every A
      run;
    - [within-bound] otherwise. *)

type bound = { better_lower : bool; bound : float }

let bounds path =
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        { better_lower = Json.to_str (Json.member "better" m) = "lower"; bound = Json.to_num (Json.member "bound" m) } ))
    (Json.to_list (Json.member "end_to_end" (Json.read_file path)))

(* (workload, metric) -> values, over the untraced runs of the files *)
let values files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      List.iter
        (fun o ->
          if not (Json.to_bool (Json.member "traced" o)) then
            let w = Json.to_str (Json.member "name" o) in
            List.iter
              (fun (k, v) ->
                let key = (w, k) in
                Hashtbl.replace tbl key
                  (Option.value (Hashtbl.find_opt tbl key) ~default:[] @ [ Json.to_num (Json.member "value" v) ]))
              (Json.to_obj (Json.member "metrics" o)))
        (Json.to_list (Json.member "workloads" (Json.read_file path))))
    files;
  tbl

let verdict b av bv =
  let beats x y = if b.better_lower then x < y else x > y in
  let am = Measure.median av and bm = Measure.median bv in
  let aq1, aq3 = Measure.quartiles av and bq1, bq3 = Measure.quartiles bv in
  let spread = Float.max ((aq3 -. aq1) /. am) ((bq3 -. bq1) /. bm) in
  let worse_by = if b.better_lower then (bm -. am) /. am else (am -. bm) /. am in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) av) bv in
  let n = min (List.length av) (List.length bv) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) (List.combine (first av) (first bv))) in
  if spread > b.bound then if all_better then "better" else "unresolved"
  else if worse_by > b.bound then "worse"
  else if 10 * wins >= 9 * n && beats bm am && Float.abs (bm -. am) > aq3 -. aq1 then "better"
  else "within-bound"

let main argv =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_files, rest = split [] argv in
  let rec opts bench files = function
    | "--benchmark" :: f :: rest -> opts f files rest
    | f :: rest -> opts bench (f :: files) rest
    | [] -> (bench, List.rev files)
  in
  let benchmark, b_files = opts "BENCHMARK.json" [] rest in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: ledger.exe diff A.json ... -- B.json ... [--benchmark BENCHMARK.json]";
    2
  end
  else begin
    let bounds = bounds benchmark in
    let av = values a_files and bv = values b_files in
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) av [] |> List.sort compare in
    Printf.printf "%-16s %-18s %32s %32s %8s %7s  %s\n" "workload" "metric" "A median [q1, q3]" "B median [q1, q3]"
      "delta" "bound" "verdict";
    let undecided = ref 0 in
    List.iter
      (fun ((w, k) as key) ->
        match (List.assoc_opt k bounds, Hashtbl.find_opt bv key) with
        | Some b, Some bs ->
          let as_ = Hashtbl.find av key in
          let side xs =
            let q1, q3 = Measure.quartiles xs in
            Printf.sprintf "%.4g [%.4g, %.4g]" (Measure.median xs) q1 q3
          in
          let v = verdict b as_ bs in
          if v = "worse" || v = "unresolved" then incr undecided;
          Printf.printf "%-16s %-18s %32s %32s %+7.2f%% %6.0f%%  %s\n" w k (side as_) (side bs)
            ((Measure.median bs -. Measure.median as_) /. Measure.median as_ *. 100.0)
            (b.bound *. 100.0) v
        | _ -> ())
      keys;
    if !undecided = 0 then 0 else 1
  end
