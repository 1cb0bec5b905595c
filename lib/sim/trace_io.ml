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

(* The header lines ([words], [array], [golden]) come before the first
   [epoch] line, which fixes the layout; from there each line streams
   into [Trace.Builder] as it is read, checked at that line. The golden
   image is allocated only then, once [words] is checked against the
   declared arrays. *)
type loader = {
  b : Trace.Builder.t;
  arrays : (string, Shape.t) Hashtbl.t;
  mutable words : int option;  (* [None] until the words line *)
  mutable golden_lines : (int * int) list;  (* (index, value), newest first *)
  mutable golden : int array;  (* [||] until the layout is fixed *)
  mutable ids : Hscd_util.Symtab.t;  (* array ids, once the layout is fixed *)
  mutable at : [ `Header | `Epoch | `Task ];  (* the innermost section open *)
}

let int_field s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> Err.fail Err.Parse "Trace_io: bad integer %s" s

(* fields the replay indexes by: a trace is input from outside *)
let word_field l what s =
  let i = int_field s and words = Option.value l.words ~default:0 in
  if i < 0 || i >= words then Err.fail Err.Parse "Trace_io: %s %d outside words %d" what i words;
  i

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

let header_line l what =
  if l.at <> `Header then Err.fail Err.Parse "Trace_io: %s line after the first epoch" what

(* A generated layout pads its last array to a line, and a line is at
   most [Config.max_line_words] words; a [words] past that is memory no
   access can reach, so it is refused before anything is sized by it. *)
let check_extent l words =
  let top = Hashtbl.fold (fun _ (a : Shape.t) m -> max m (a.base + a.size)) l.arrays 0 in
  let extent = Hscd_util.Ints.round_up top Hscd_arch.Config.max_line_words in
  if words > extent then
    Err.fail Err.Parse "Trace_io: words %d past the declared arrays' extent of %d" words extent

(* end what is open; at the first epoch line (or the end of a file
   without one), fix the layout *)
let close l =
  match l.at with
  | `Header ->
    let words = Option.value l.words ~default:0 in
    check_extent l words;
    let layout = { Shape.arrays = l.arrays; total_words = words } in
    Trace.Builder.init l.b layout;
    l.golden <- Array.make (max 1 words) 0;
    List.iter (fun (i, v) -> l.golden.(i) <- v) (List.rev l.golden_lines);
    l.ids <- Trace.symtab_of_layout layout
  | `Epoch -> Trace.Builder.epoch_end l.b
  | `Task ->
    Trace.Builder.task_end l.b;
    Trace.Builder.epoch_end l.b

let begin_epoch l kind =
  close l;
  (* an epoch's [lo .. hi] is not trusted to size anything *)
  Trace.Builder.epoch_begin l.b kind ~tasks:0;
  l.at <- `Epoch

(* an event line belongs to the task line above it, and a task line to
   the epoch line above it *)
let event l =
  if l.at <> `Task then Err.fail Err.Parse "Trace_io: event outside a task";
  l.b

let array_id l name =
  match Hscd_util.Symtab.find_opt l.ids name with
  | Some id -> id
  | None -> Err.fail Err.Parse "Trace_io: unknown array %s" name

let parse_line l line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | [ "hscd-trace"; _ ] -> Err.fail Err.Parse "Trace_io: %s header past line 1" header
  | [ "words"; n ] ->
    header_line l "words";
    if Option.is_some l.words then Err.fail Err.Parse "Trace_io: words given twice";
    let n = int_field n in
    if n < 0 then Err.fail Err.Parse "Trace_io: negative words";
    if n > Trace.max_memory_words then
      Err.fail Err.Parse "Trace_io: %d words past the limit of %d" n Trace.max_memory_words;
    l.words <- Some n
  | "array" :: name :: base :: dims ->
    header_line l "array";
    if Hashtbl.length l.arrays = Trace.max_arrays then
      Err.fail Err.Parse "Trace_io: more than %d arrays" Trace.max_arrays;
    if Hashtbl.mem l.arrays name then Err.fail Err.Parse "Trace_io: array %s declared twice" name;
    let base = int_field base and dims = List.map int_field dims in
    if base < 0 then Err.fail Err.Parse "Trace_io: bad array base";
    if dims = [] || List.exists (fun d -> d <= 0) dims then
      Err.fail Err.Parse "Trace_io: bad array dimension";
    Hashtbl.replace l.arrays name { Shape.name; dims; size = Shape.size_of_dims dims; base }
  | [ "golden"; i; v ] ->
    header_line l "golden";
    if Option.is_none l.words then Err.fail Err.Parse "Trace_io: golden before words";
    let i = word_field l "golden index" i in
    l.golden_lines <- (i, int_field v) :: l.golden_lines
  | [ "epoch"; "serial" ] -> begin_epoch l Trace.Serial
  | [ "epoch"; "parallel"; lo; hi ] ->
    begin_epoch l (Trace.Parallel { lo = int_field lo; hi = int_field hi })
  | [ "task"; iter ] ->
    let iter = int_field iter in
    if l.at = `Header then Err.fail Err.Parse "Trace_io: task outside an epoch";
    if l.at = `Task then Trace.Builder.task_end l.b;
    Trace.Builder.task_begin l.b ~iter;
    l.at <- `Task
  | [ "C"; n ] ->
    let b = event l and n = int_field n in
    if n < 0 then Err.fail Err.Parse "Trace_io: negative compute count %d" n;
    Trace.Builder.compute b n
  | [ "R"; addr; mark; value; array ] ->
    let b = event l in
    Trace.Builder.read b ~array:(array_id l array) ~addr:(word_field l "address" addr)
      ~value:(int_field value) ~rcode:(Event.Code.of_rmark (mark_of_str mark))
  | [ "W"; addr; mark; value; array ] ->
    let b = event l in
    Trace.Builder.write b ~array:(array_id l array) ~addr:(word_field l "address" addr)
      ~value:(int_field value) ~wcode:(Event.Code.of_wmark (wmark_of_str mark))
  | [ "L" ] -> Trace.Builder.lock (event l)
  | [ "U" ] -> Trace.Builder.unlock (event l)
  | _ -> Err.fail Err.Parse "Trace_io: bad line"

let load path =
  let l =
    {
      b = Trace.Builder.create ();
      arrays = Hashtbl.create 16;
      words = None;
      golden_lines = [];
      golden = [||];
      ids = Hscd_util.Symtab.create ();
      at = `Header;
    }
  in
  let ic = try open_in path with Sys_error m -> Err.fail Err.Io "Trace_io: %s" m in
  let lineno = ref 1 in
  (try
     check_header (Option.value (In_channel.input_line ic) ~default:"");
     while true do
       let line = input_line ic in
       incr lineno;
       try parse_line l line
       with Err.Error e ->
         raise (Err.Error (Err.add_context (Printf.sprintf "line %d: %s" !lineno line) e))
     done
   with
  | End_of_file -> close_in_noerr ic
  | exn ->
    close_in_noerr ic;
    raise exn);
  close l;
  Trace.Builder.finish l.b ~golden:l.golden

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
