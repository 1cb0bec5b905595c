(** Plain-text table rendering for the experiment harness.

    The benchmark executable prints every reproduced paper table/figure as
    an aligned ASCII table; this module owns the layout so every experiment
    renders uniformly. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
  mutable notes : string list; (* reversed *)
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length header then invalid_arg "Table.create: aligns/header mismatch";
      a
    | None -> List.map (fun _ -> Right) header
  in
  { title; header; aligns; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): expected %d cells, got %d" t.title
         (List.length t.header) (List.length row));
  t.rows <- row :: t.rows

let add_note t note = t.notes <- note :: t.notes

let rows t = List.rev t.rows

(* Column widths: max of header and all cells. *)
let widths t =
  let ncols = List.length t.header in
  let w = Array.make ncols 0 in
  let scan row = List.iteri (fun i cell -> if String.length cell > w.(i) then w.(i) <- String.length cell) row in
  scan t.header;
  List.iter scan (rows t);
  w

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let w = widths t in
  let line_of row =
    String.concat "  "
      (List.mapi (fun i cell -> pad (List.nth t.aligns i) w.(i) cell) row)
  in
  let sep = String.concat "  " (Array.to_list (Array.map (fun n -> String.make n '-') w)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line_of t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line_of row ^ "\n")) (rows t);
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) (List.rev t.notes);
  Buffer.contents buf

let print t = print_string (render t); print_newline ()

(* Cell formatting helpers shared by all experiments. *)
let fi = string_of_int
let ff1 v = Printf.sprintf "%.1f" v
let ff2 v = Printf.sprintf "%.2f" v
let fpct v = Printf.sprintf "%.2f%%" (v *. 100.0)

(** Human-readable byte sizes, used by the Fig 5 storage table. *)
let fbytes b =
  let b = float_of_int b in
  let kib = 1024.0 and mib = 1024.0 *. 1024.0 and gib = 1024.0 *. 1024.0 *. 1024.0 in
  if b >= gib then Printf.sprintf "%.1fGB" (b /. gib)
  else if b >= mib then Printf.sprintf "%.1fMB" (b /. mib)
  else if b >= kib then Printf.sprintf "%.1fKB" (b /. kib)
  else Printf.sprintf "%.0fB" b
