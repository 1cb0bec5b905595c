(** In-memory spans recorded by the benchmark around its calls into each
    layer. A span's name is [layer.what]; its layer is the part before the
    first dot. Nothing is recorded unless {!enable} was called, and the
    spans are only written out when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 at the top *)
  op : int;  (** the operation the span belongs to, -1 outside any *)
  tid : int;
  start : float;  (** seconds, {!now} clock *)
  stop : float;
}

let now = Unix.gettimeofday
let on = ref false
let enable () = on := true
let mu = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 0

(* per-thread stack of open spans: (id, op) *)
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 4

(** [with_ ?op name f] runs [f] inside span [name]. [op] starts a new
    operation id; nested spans inherit the innermost one. *)
let with_ ?op name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, op =
      Mutex.protect mu (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          let parent, inherited = match stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1) in
          let op = Option.value op ~default:inherited in
          Hashtbl.replace stacks tid ((id, op) :: stack);
          (id, parent, op))
    in
    let start = now () in
    let finish () =
      let stop = now () in
      Mutex.protect mu (fun () ->
          (match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ());
          recorded :=
            { id; name; parent; op; tid; start; stop } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let all () = Mutex.protect mu (fun () -> List.rev !recorded)
let duration s = s.stop -. s.start
let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(** Spans named exactly [name]. *)
let named name = List.filter (fun s -> s.name = name) (all ())

(** Self time per layer: each span's duration minus the part of it its
    child spans cover, summed by layer, largest first. *)
let self_time_by_layer () =
  let spans = all () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      let l = layer s.name in
      let t, n = Option.value (Hashtbl.find_opt by_layer l) ~default:(0.0, 0) in
      Hashtbl.replace by_layer l (t +. self, n + 1))
    spans;
  Hashtbl.fold (fun l (t, n) acc -> (l, t, n) :: acc) by_layer []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(** Chrome trace-event JSON (complete events, microseconds). *)
let write_chrome path =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Num ((s.start -. t0) *. 1e6));
        ("dur", Json.Num (duration s *. 1e6));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.tid));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("op", Json.Num (float_of_int s.op));
            ] );
      ]
  in
  Json.write_file path (Json.Obj [ ("traceEvents", Json.Arr (List.map ev spans)) ])
