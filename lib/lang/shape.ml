(** Array shapes and the global flat address map.

    Every array is laid out row-major in a single word-addressed shared
    address space; [layout] assigns each array a base word address. The
    simulator's caches and directories operate on these word addresses. *)

type t = {
  name : string;
  dims : int list;
  size : int;  (** total words *)
  base : int;  (** first word address *)
}

type layout = { arrays : (string, t) Hashtbl.t; total_words : int }

let size_of_dims dims =
  if dims = [] then invalid_arg "Shape: array with no dimensions";
  List.iter (fun d -> if d <= 0 then invalid_arg "Shape: non-positive dimension") dims;
  List.fold_left ( * ) 1 dims

(** Build the address map. Arrays are padded to a line-size multiple so two
    arrays never share a cache line; inter-array false sharing would be an
    artifact of our packing, not of the workload. *)
let layout ?(line_words = 4) (decls : Ast.decl list) =
  let arrays = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (d : Ast.decl) ->
      if Hashtbl.mem arrays d.arr_name then
        invalid_arg (Printf.sprintf "Shape: duplicate array %s" d.arr_name);
      let size = size_of_dims d.dims in
      let t = { name = d.arr_name; dims = d.dims; size; base = !next } in
      Hashtbl.replace arrays d.arr_name t;
      next := Hscd_util.Ints.round_up (!next + size) line_words)
    decls;
  { arrays; total_words = !next }

let find l name =
  match Hashtbl.find l.arrays name with
  | t -> t
  | exception Not_found -> invalid_arg (Printf.sprintf "Shape: unknown array %s" name)

let mem l name = Hashtbl.mem l.arrays name

(** Row-major flattening of a subscript vector, with bounds checking. *)
let flatten t indices =
  let rec loop dims idxs acc =
    match (dims, idxs) with
    | [], [] -> acc
    | d :: dims', i :: idxs' ->
      if i < 0 || i >= d then
        invalid_arg
          (Printf.sprintf "Shape: index %d out of bounds [0,%d) for %s" i d t.name);
      loop dims' idxs' ((acc * d) + i)
    | _ ->
      invalid_arg
        (Printf.sprintf "Shape: %s expects %d subscripts, got %d" t.name (List.length t.dims)
           (List.length indices))
  in
  loop t.dims indices 0

(** Word address of an element. *)
let address l name indices =
  let t = find l name in
  t.base + flatten t indices

(* 1- and 2-subscript addressing: same bounds checks and error text as
   [flatten], except that a wrong subscript count is reported before any
   bound, and no index list. *)

let oob t i d =
  invalid_arg (Printf.sprintf "Shape: index %d out of bounds [0,%d) for %s" i d t.name)

let arity_mismatch t got =
  invalid_arg
    (Printf.sprintf "Shape: %s expects %d subscripts, got %d" t.name (List.length t.dims) got)

let address1 t i =
  match t.dims with
  | [ d ] ->
    if i < 0 || i >= d then oob t i d;
    t.base + i
  | _ -> arity_mismatch t 1

let address2 t i j =
  match t.dims with
  | [ d1; d2 ] ->
    if i < 0 || i >= d1 then oob t i d1;
    if j < 0 || j >= d2 then oob t j d2;
    t.base + (i * d2) + j
  | _ -> arity_mismatch t 2

(** Inverse of [address]: which array and flat offset owns a word address.
    Returns [None] for padding words. *)
let owner l addr =
  Hashtbl.fold
    (fun _ t acc ->
      match acc with
      | Some _ -> acc
      | None -> if addr >= t.base && addr < t.base + t.size then Some (t, addr - t.base) else None)
    l.arrays None

let arrays_in_order l =
  Hashtbl.fold (fun _ t acc -> t :: acc) l.arrays []
  |> List.sort (fun a b -> compare a.base b.base)
