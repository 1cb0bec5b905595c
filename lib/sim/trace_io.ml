(* Text trace files; the format is described in [trace_io.mli]. *)

module Event = Hscd_arch.Event
module Shape = Hscd_lang.Shape
module Err = Hscd_util.Hscd_error
module Slab = Trace.Slab

let mark_str = function
  | Event.Unmarked -> "U"
  | Event.Normal_read -> "N"
  | Event.Bypass_read -> "B"
  | Event.Time_read d -> "T" ^ string_of_int d

let mark_of_str s =
  match s with
  | "U" -> Event.Unmarked
  | "N" -> Event.Normal_read
  | "B" -> Event.Bypass_read
  | _ -> (
    let d =
      if String.length s > 1 && s.[0] = 'T' then
        int_of_string_opt (String.sub s 1 (String.length s - 1))
      else None
    in
    match d with
    | Some d when d > Trace.max_time_read ->
      Err.fail Err.Parse "Trace_io: Time-Read distance %d past the limit of %d" d
        Trace.max_time_read
    | Some d when d >= 0 -> Event.Time_read d
    | _ -> Err.fail Err.Parse "Trace_io: bad read mark %s" s)

let wmark_str = function Event.Normal_write -> "N" | Event.Bypass_write -> "B"

let wmark_of_str = function
  | "N" -> Event.Normal_write
  | "B" -> Event.Bypass_write
  | s -> Err.fail Err.Parse "Trace_io: bad write mark %s" s

let write_channel oc (p : Trace.packed) =
  let pr fmt = Printf.fprintf oc fmt in
  pr "hscd-trace 1\n";
  pr "words %d\n" p.p_layout.Shape.total_words;
  List.iter
    (fun (a : Shape.t) ->
      pr "array %s %d %s\n" a.name a.base (String.concat " " (List.map string_of_int a.dims)))
    (Shape.arrays_in_order p.p_layout);
  Array.iteri (fun i v -> if v <> 0 then pr "golden %d %d\n" i v) p.p_golden;
  let array i = Hscd_util.Symtab.name p.symtab (Trace.arr p i) in
  Array.iter
    (fun (e : Trace.pepoch) ->
      (match e.p_kind with
      | Trace.Serial -> pr "epoch serial\n"
      | Trace.Parallel { lo; hi } -> pr "epoch parallel %d %d\n" lo hi);
      Array.iter
        (fun (task : Trace.ptask) ->
          pr "task %d\n" task.p_iter;
          for i = task.off to task.off + task.len - 1 do
            let op = Trace.op p i
            and addr = Trace.addr p i
            and value = Trace.value p i
            and mark = Trace.mark p i in
            if op = Event.Code.compute then pr "C %d\n" addr
            else if op = Event.Code.read then
              pr "R %d %s %d %s\n" addr (mark_str (Event.Code.rmark_of mark)) value (array i)
            else if op = Event.Code.write then
              pr "W %d %s %d %s\n" addr (wmark_str (Event.Code.wmark_of mark)) value (array i)
            else if op = Event.Code.lock then pr "L\n"
            else pr "U\n"
          done)
        e.p_tasks)
    p.p_epochs

let save path p =
  let oc = open_out path in
  (* close_out_noerr: close_out itself can raise (flush of a full disk)
     and would leak the descriptor from inside this handler *)
  (try write_channel oc p with exn -> close_out_noerr oc; raise exn);
  close_out oc

(* --- loading --- *)

type builder = {
  mutable words : int;
  mutable arrays : Shape.t list;
  mutable n_arrays : int;
  mutable golden : (int * int) list;
  mutable epochs : Trace.epoch list;  (* reversed *)
  mutable cur_kind : Trace.epoch_kind option;
  mutable cur_tasks : Trace.task list;  (* reversed *)
  mutable cur_iter : int;
  mutable cur_events : Event.t list;  (* reversed *)
  mutable in_task : bool;
  mutable total : int;  (* memory + sync events, as in [Trace.t.total_events] *)
}

let flush_task b =
  if b.in_task then begin
    b.cur_tasks <-
      { Trace.iter = b.cur_iter; events = Array.of_list (List.rev b.cur_events) } :: b.cur_tasks;
    b.cur_events <- [];
    b.in_task <- false
  end

let flush_epoch b =
  flush_task b;
  match b.cur_kind with
  | None -> ()
  | Some kind ->
    b.epochs <- { Trace.kind; tasks = Array.of_list (List.rev b.cur_tasks) } :: b.epochs;
    b.cur_tasks <- [];
    b.cur_kind <- None

(* an event line belongs to the task line above it, and a task line to
   the epoch line above it *)
let add_event b e =
  if not b.in_task then Err.fail Err.Parse "Trace_io: event outside a task";
  b.cur_events <- e :: b.cur_events

let int_field s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> Err.fail Err.Parse "Trace_io: bad integer %s" s

let header = "hscd-trace 1"

(* Line 1 is the header, and only line 1. An old binary dump gets its
   own message and is not echoed: its first line is raw bytes. *)
let check_header line =
  let old_binary = "HSCDTRC3" in
  if String.starts_with ~prefix:old_binary line then
    Err.fail ~context:[ "line 1" ] Err.Parse
      "Trace_io: an %s binary trace; that format was removed, so write the trace again as \
       text with hscd trace" old_binary
  else if String.trim line <> header then
    Err.fail ~context:[ "line 1: " ^ line ] Err.Parse "Trace_io: missing %s header" header

let parse_line b line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | [ "hscd-trace"; _ ] -> Err.fail Err.Parse "Trace_io: %s header past line 1" header
  | [ "words"; n ] ->
    b.words <- int_field n;
    if b.words < 0 then Err.fail Err.Parse "Trace_io: negative words";
    if b.words > Trace.max_memory_words then
      Err.fail Err.Parse "Trace_io: %d words past the limit of %d" b.words Trace.max_memory_words
  | "array" :: name :: base :: dims ->
    if b.n_arrays = Trace.max_arrays then
      Err.fail Err.Parse "Trace_io: more than %d arrays" Trace.max_arrays;
    let base = int_field base and dims = List.map int_field dims in
    if base < 0 then Err.fail Err.Parse "Trace_io: bad array base";
    if dims = [] || List.exists (fun d -> d <= 0) dims then
      Err.fail Err.Parse "Trace_io: bad array dimension";
    b.arrays <- { Shape.name; dims; size = Shape.size_of_dims dims; base } :: b.arrays;
    b.n_arrays <- b.n_arrays + 1
  | [ "golden"; i; v ] -> b.golden <- (int_field i, int_field v) :: b.golden
  | [ "epoch"; "serial" ] ->
    flush_epoch b;
    b.cur_kind <- Some Trace.Serial
  | [ "epoch"; "parallel"; lo; hi ] ->
    flush_epoch b;
    b.cur_kind <- Some (Trace.Parallel { lo = int_field lo; hi = int_field hi })
  | [ "task"; iter ] ->
    if b.cur_kind = None then Err.fail Err.Parse "Trace_io: task outside an epoch";
    flush_task b;
    b.cur_iter <- int_field iter;
    b.in_task <- true
  | [ "C"; n ] -> add_event b (Event.Compute (int_field n))
  | [ "R"; addr; mark; value; array ] ->
    b.total <- b.total + 1;
    add_event b
      (Event.Read { addr = int_field addr; mark = mark_of_str mark; value = int_field value; array })
  | [ "W"; addr; mark; value; array ] ->
    b.total <- b.total + 1;
    add_event b
      (Event.Write { addr = int_field addr; mark = wmark_of_str mark; value = int_field value; array })
  | [ "L" ] ->
    b.total <- b.total + 1;
    add_event b Event.Lock
  | [ "U" ] ->
    b.total <- b.total + 1;
    add_event b Event.Unlock
  | _ -> Err.fail Err.Parse "Trace_io: bad line"

let load path : Trace.t =
  let b =
    {
      words = 0;
      arrays = [];
      n_arrays = 0;
      golden = [];
      epochs = [];
      cur_kind = None;
      cur_tasks = [];
      cur_iter = 0;
      cur_events = [];
      in_task = false;
      total = 0;
    }
  in
  let ic = try open_in path with Sys_error m -> Err.fail Err.Io "Trace_io: %s" m in
  let lineno = ref 1 in
  (try
     check_header (Option.value (In_channel.input_line ic) ~default:"");
     while true do
       let line = input_line ic in
       incr lineno;
       try parse_line b line
       with Err.Error e ->
         raise (Err.Error (Err.add_context (Printf.sprintf "line %d: %s" !lineno line) e))
     done
   with
  | End_of_file -> close_in_noerr ic
  | exn ->
    close_in_noerr ic;
    raise exn);
  flush_epoch b;
  let arrays = Hashtbl.create 16 in
  List.iter (fun (a : Shape.t) -> Hashtbl.replace arrays a.name a) b.arrays;
  (* fields the replay indexes by: a trace is input from outside *)
  let check_word what i =
    if i < 0 || i >= b.words then Err.fail Err.Parse "Trace_io: %s %d outside words %d" what i b.words
  in
  let check_event = function
    | Event.Read { addr; array; _ } | Event.Write { addr; array; _ } ->
      check_word "address" addr;
      if not (Hashtbl.mem arrays array) then Err.fail Err.Parse "Trace_io: unknown array %s" array
    | Event.Compute n when n < 0 -> Err.fail Err.Parse "Trace_io: negative compute count %d" n
    | _ -> ()
  in
  let epochs = Array.of_list (List.rev b.epochs) in
  Array.iter
    (fun (e : Trace.epoch) -> Array.iter (fun (t : Trace.task) -> Array.iter check_event t.events) e.tasks)
    epochs;
  let golden = Array.make (max 1 b.words) 0 in
  List.iter
    (fun (i, v) ->
      check_word "golden index" i;
      golden.(i) <- v)
    b.golden;
  {
    Trace.epochs;
    layout = { Shape.arrays; total_words = b.words };
    golden_memory = golden;
    total_events = b.total;
  }

let equal (a : Trace.t) (b : Trace.t) =
  a.epochs = b.epochs && a.golden_memory = b.golden_memory
  && a.layout.Shape.total_words = b.layout.Shape.total_words

let load_result path =
  Err.guard ~default:Err.Parse ~context:path (fun () -> load path)

let equal_packed (a : Trace.packed) (b : Trace.packed) =
  let n = a.Trace.n_slots in
  let words = 2 * n in
  let prefix_equal (x : Slab.t) (y : Slab.t) =
    Slab.length x >= words && Slab.length y >= words
    &&
    let rec go i = i >= words || (Slab.get x i = Slab.get y i && go (i + 1)) in
    go 0
  in
  n = b.Trace.n_slots
  && a.Trace.p_total_events = b.Trace.p_total_events
  && a.Trace.p_max_tickets = b.Trace.p_max_tickets
  && a.Trace.p_epochs = b.Trace.p_epochs
  && a.Trace.rmark_table = b.Trace.rmark_table
  && Hscd_util.Symtab.names a.Trace.symtab = Hscd_util.Symtab.names b.Trace.symtab
  && a.Trace.p_golden = b.Trace.p_golden
  && a.Trace.p_layout.Shape.total_words = b.Trace.p_layout.Shape.total_words
  && Shape.arrays_in_order a.Trace.p_layout = Shape.arrays_in_order b.Trace.p_layout
  && prefix_equal a.Trace.slots b.Trace.slots
