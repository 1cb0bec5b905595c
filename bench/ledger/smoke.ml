(** [ledger.exe smoke --benchmark FILE]: every workload on test-scale
    inputs, untraced and traced, each in its own process. Each must exit
    0 with no failed operation, and print exactly the metric names and
    units [FILE] lists for that mode. *)

(* (name, unit) of every metric [key] lists *)
let declared key path =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key (Json.read_file path)))

let valid_name n =
  n <> ""
  && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) n

(* exit status, last stdout line, stderr (shown only on failure) *)
let run_child args =
  let out, inp, err =
    Unix.open_process_args_full Sys.executable_name (Array.of_list (Sys.executable_name :: args)) (Unix.environment ())
  in
  close_out inp;
  let rec lines ic acc = match input_line ic with l -> lines ic (l :: acc) | exception End_of_file -> acc in
  let stdout_lines = lines out [] in
  let stderr_lines = List.rev (lines err []) in
  let status = Unix.close_process_full (out, inp, err) in
  (status, (match stdout_lines with last :: _ -> last | [] -> ""), String.concat "\n" stderr_lines)

let main ~workloads benchmark =
  let failures = ref 0 and checks = ref 0 in
  let check what ok =
    incr checks;
    if not ok then begin
      Printf.printf "FAIL %s\n%!" what;
      incr failures
    end
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          let status, last, err = run_child [ "run"; "--workload"; w; "--smoke"; "--seconds"; "0"; "--trace"; trace ] in
          check (what ^ ": exit 0") (status = Unix.WEXITED 0);
          if status <> Unix.WEXITED 0 then prerr_endline err;
          match Json.parse last with
          | exception Json.Parse_error e -> check (what ^ ": last line is the result object (" ^ e ^ ")") false
          | j ->
            let num k = Json.to_num (Json.member k j) in
            check (what ^ ": correct, none failed") (Json.to_bool (Json.member "correct" j) && num "failed" = 0.0);
            check (what ^ ": attempted >= 1") (num "attempted" >= 1.0);
            let printed =
              List.map (fun (k, v) -> (k, Json.to_str (Json.member "unit" v))) (Json.to_obj (Json.member "metrics" j))
            in
            check (what ^ ": metric names and units are " ^ key ^ " of " ^ benchmark)
              (List.sort compare printed = List.sort compare (declared key benchmark));
            check (what ^ ": metric names match [A-Za-z0-9_.-]+") (List.for_all (fun (k, _) -> valid_name k) printed))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  Printf.printf "bench-smoke: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures = 0 then 0 else 1
