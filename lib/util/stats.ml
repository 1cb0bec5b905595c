(** Small statistics toolkit used by the metrics and experiment layers. *)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [percentile p xs] with [p] in [0,100], nearest-rank on the sorted data. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    List.nth sorted idx

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
