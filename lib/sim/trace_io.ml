(** Plain-text serialization of traces, so a marked program's event stream
    can be generated once and replayed by external tooling (or inspected
    by hand). The format is line-oriented:

    {v
    hscd-trace 1
    words <total_words>
    array <name> <base> <dim> [<dim> ...]
    golden <index> <value>            (only non-zero words)
    epoch serial | epoch parallel <lo> <hi>
    task <iter>
    C <cycles>
    R <addr> <mark> <value> <array>   (mark: N|U|B|T<d>)
    W <addr> <mark> <value> <array>   (mark: N|B)
    L / U                             (lock / unlock)
    v} *)

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
  | _ when String.length s > 1 && s.[0] = 'T' ->
    Event.Time_read (int_of_string (String.sub s 1 (String.length s - 1)))
  | _ -> Err.fail Err.Parse "Trace_io: bad read mark %s" s

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
  let array i = Hscd_util.Symtab.name p.symtab (Slab.get p.arrs i) in
  Array.iter
    (fun (e : Trace.pepoch) ->
      (match e.p_kind with
      | Trace.Serial -> pr "epoch serial\n"
      | Trace.Parallel { lo; hi } -> pr "epoch parallel %d %d\n" lo hi);
      Array.iter
        (fun (task : Trace.ptask) ->
          pr "task %d\n" task.p_iter;
          for i = task.off to task.off + task.len - 1 do
            let op = Slab.get p.ops i
            and addr = Slab.get p.addrs i
            and value = Slab.get p.values i
            and mark = Slab.get p.marks i in
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

(** Write [p] in the text format. A boxed trace is saved as
    [save path (Trace.pack t)]. *)
let save path p =
  let oc = open_out path in
  (* close_out_noerr: close_out itself can raise (flush of a full disk)
     and would leak the descriptor from inside this handler *)
  (try write_channel oc p with exn -> close_out_noerr oc; raise exn);
  close_out oc

(* --- loading --- *)

type builder = {
  mutable words : int;
  mutable arrays : (string * int * int list) list;  (* name, base, dims; reversed *)
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

let parse_line b line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | [ "hscd-trace"; "1" ] -> ()
  | [ "words"; n ] -> b.words <- int_of_string n
  | "array" :: name :: base :: dims ->
    b.arrays <- (name, int_of_string base, List.map int_of_string dims) :: b.arrays
  | [ "golden"; i; v ] -> b.golden <- (int_of_string i, int_of_string v) :: b.golden
  | [ "epoch"; "serial" ] ->
    flush_epoch b;
    b.cur_kind <- Some Trace.Serial
  | [ "epoch"; "parallel"; lo; hi ] ->
    flush_epoch b;
    b.cur_kind <- Some (Trace.Parallel { lo = int_of_string lo; hi = int_of_string hi })
  | [ "task"; iter ] ->
    if b.cur_kind = None then Err.fail Err.Parse "Trace_io: task outside an epoch";
    flush_task b;
    b.cur_iter <- int_of_string iter;
    b.in_task <- true
  | [ "C"; n ] -> add_event b (Event.Compute (int_of_string n))
  | [ "R"; addr; mark; value; array ] ->
    b.total <- b.total + 1;
    add_event b
      (Event.Read
         { addr = int_of_string addr; mark = mark_of_str mark; value = int_of_string value; array })
  | [ "W"; addr; mark; value; array ] ->
    b.total <- b.total + 1;
    add_event b
      (Event.Write
         { addr = int_of_string addr; mark = wmark_of_str mark; value = int_of_string value; array })
  | [ "L" ] ->
    b.total <- b.total + 1;
    add_event b Event.Lock
  | [ "U" ] ->
    b.total <- b.total + 1;
    add_event b Event.Unlock
  | _ -> Err.fail Err.Parse "Trace_io: bad line: %s" line

let load path : Trace.t =
  let b =
    {
      words = 0;
      arrays = [];
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
  (try
     while true do
       parse_line b (input_line ic)
     done
   with
  | End_of_file -> close_in_noerr ic
  | exn ->
    close_in_noerr ic;
    raise exn);
  flush_epoch b;
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (name, base, dims) ->
      Hashtbl.replace arrays name
        { Shape.name; dims; size = Shape.size_of_dims dims; base })
    b.arrays;
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

(** Structural equality of traces (for round-trip tests). *)
let equal (a : Trace.t) (b : Trace.t) =
  a.epochs = b.epochs && a.golden_memory = b.golden_memory
  && a.layout.Shape.total_words = b.layout.Shape.total_words

(* ------------------------------------------------------------------ *)
(* Binary trace format: a direct dump of the packed slabs, mappable    *)
(* with [Unix.map_file] and validated lazily. All ints are 8-byte      *)
(* little-endian two's complement.                                     *)
(*   magic "HSCDTRC3"                                                  *)
(*   total_words, n_arrays, then per array: name, base, n_dims, dims   *)
(*   golden_len, n_nonzero, then (index, value) pairs                  *)
(*   n_symbols, then names in id order                                 *)
(*   rmark_max_code                                                    *)
(*   total_events, n_slots, max_tickets                                *)
(*   n_epochs, then per epoch: kind (0 serial | 1 lo hi), n_tickets,   *)
(*     n_tasks, then per task: iter off len ticket0 n_locks            *)
(*   chunk_words, and per slab ceil(n_slots/chunk_words) chunk         *)
(*     checksums (row-major: slab 0's chunks, then slab 1's, ...),     *)
(*     each seeded with the slab and chunk index so swapped or         *)
(*     relocated chunks cannot cancel out                              *)
(*   header checksum (avalanche mix folded over every value above,     *)
(*     written raw)                                                    *)
(*   zero padding to an 8-byte file offset                             *)
(*   five slabs, live slots only, as raw unchecksummed words (their    *)
(*     integrity is the chunk table's): ops addrs values marks arrs    *)
(* Nothing follows the slabs, so the expected file length is known     *)
(* from the header. Any other magic is a foreign file.                 *)
(* ------------------------------------------------------------------ *)

let binary_magic = "HSCDTRC3"

(** Slab words covered by one chunk checksum (512 KiB of file). *)
let chunk_words = 65536

let mix = Hscd_util.Checksum.mix

let corrupt what = Err.fail Err.Corrupt "Trace_io: corrupt binary trace (%s)" what

(* the chunk table's entry for chunk [c] of slab number [slab]: [mix]
   folded over [get i] for the slots [i] = [c*cw .. min n ((c+1)*cw) - 1],
   in ascending order (the buffered reader streams the file through
   [get]), from a domain-separated seed per (slab, chunk) so that a chunk
   that checks out in the wrong slot is still rejected *)
let chunk_sum ~slab ~n ~cw c get =
  let sum = ref (mix (mix 0 (0xC0FFEE + slab)) c) in
  for i = c * cw to min n ((c + 1) * cw) - 1 do
    sum := mix !sum (get i)
  done;
  !sum

let chunks_of ~n ~cw = if n = 0 then 0 else ((n - 1) / cw) + 1

type bin_writer = { oc : out_channel; wscratch : Bytes.t; mutable wsum : int }

let put_raw w v =
  Bytes.set_int64_le w.wscratch 0 (Int64.of_int v);
  output_bytes w.oc w.wscratch

let put_int w v =
  put_raw w v;
  w.wsum <- mix w.wsum v

let put_str w s =
  put_int w (String.length s);
  output_string w.oc s;
  w.wsum <- Hscd_util.Checksum.sum_string w.wsum s

let write_packed_channel ?(chunk_words = chunk_words) oc (p : Trace.packed) =
  output_string oc binary_magic;
  let w = { oc; wscratch = Bytes.create 8; wsum = 0 } in
  (* address map *)
  put_int w p.Trace.p_layout.Shape.total_words;
  let arrays = Shape.arrays_in_order p.Trace.p_layout in
  put_int w (List.length arrays);
  List.iter
    (fun (a : Shape.t) ->
      put_str w a.name;
      put_int w a.base;
      put_int w (List.length a.dims);
      List.iter (put_int w) a.dims)
    arrays;
  (* golden memory, sparse *)
  let golden = p.Trace.p_golden in
  put_int w (Array.length golden);
  let nz = Array.fold_left (fun acc v -> if v <> 0 then acc + 1 else acc) 0 golden in
  put_int w nz;
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        put_int w i;
        put_int w v
      end)
    golden;
  (* interner (id order) and the mark decode table's extent *)
  let names = Hscd_util.Symtab.names p.Trace.symtab in
  put_int w (Array.length names);
  Array.iter (put_str w) names;
  put_int w (Array.length p.Trace.rmark_table - 1);
  (* scalars *)
  put_int w p.Trace.p_total_events;
  put_int w p.Trace.n_slots;
  put_int w p.Trace.p_max_tickets;
  (* epoch / task descriptors *)
  put_int w (Array.length p.Trace.p_epochs);
  Array.iter
    (fun (e : Trace.pepoch) ->
      (match e.p_kind with
      | Trace.Serial -> put_int w 0
      | Trace.Parallel { lo; hi } ->
        put_int w 1;
        put_int w lo;
        put_int w hi);
      put_int w e.p_n_tickets;
      put_int w (Array.length e.p_tasks);
      Array.iter
        (fun (t : Trace.ptask) ->
          put_int w t.p_iter;
          put_int w t.off;
          put_int w t.len;
          put_int w t.ticket0;
          put_int w t.n_locks)
        e.p_tasks)
    p.Trace.p_epochs;
  (* chunk checksum table: computed over the live slab words before the
     slabs themselves are written, and folded into the header checksum so
     the table is tamper-evident *)
  let n = p.Trace.n_slots in
  let cw = chunk_words in
  put_int w cw;
  let slabs = [| p.Trace.ops; p.Trace.addrs; p.Trace.values; p.Trace.marks; p.Trace.arrs |] in
  let nchunks = chunks_of ~n ~cw in
  Array.iteri
    (fun j s ->
      for c = 0 to nchunks - 1 do
        put_int w (chunk_sum ~slab:j ~n ~cw c (Slab.get s))
      done)
    slabs;
  (* header checksum, written raw (not folded into itself) *)
  put_raw w w.wsum;
  (* zero padding to an 8-byte file offset, so [Unix.map_file] can map
     the slab region directly as a word-aligned [Bigarray] *)
  let pad = (8 - (pos_out oc mod 8)) mod 8 in
  for _ = 1 to pad do
    output_char oc '\000'
  done;
  (* slabs — live slots only (builder-grown capacity is not persisted);
     raw words, covered by the chunk table rather than the header sum *)
  Array.iter
    (fun s ->
      for i = 0 to n - 1 do
        put_raw w (Slab.get s i)
      done)
    slabs

(* [chunk_words] is the lazy-validation granule of the chunk table; the
   default suits real traces, tests shrink it to exercise multi-chunk
   maps without gigantic fixtures. *)
let write_packed ?chunk_words path p =
  let oc = open_out_bin path in
  (try write_packed_channel ?chunk_words oc p
   with exn ->
     close_out_noerr oc;
     raise exn);
  close_out oc

(* Buffered reader: decodes words out of a 64 KiB block buffer instead of
   issuing one [really_input] per 8-byte field — the scalar-read path cost
   dominated binary loading before slab I/O went through [Bytes] blocks. *)
type bin_reader = {
  ic : in_channel;
  rbuf : Bytes.t;
  mutable rpos : int;  (* read cursor within [rbuf] *)
  mutable rlen : int;  (* valid bytes in [rbuf] *)
  mutable rbase : int;  (* file offset of [rbuf]'s first byte *)
  mutable rsum : int;
  rlimit : int;  (* total file length *)
}

let reader ic =
  { ic; rbuf = Bytes.create 65536; rpos = 0; rlen = 0; rbase = pos_in ic; rsum = 0;
    rlimit = in_channel_length ic }

(* absolute file offset of the next unconsumed byte *)
let tell r = r.rbase + r.rpos

(* make at least [n] bytes (n <= buffer size) available at [rpos] *)
let ensure r n =
  if r.rlen - r.rpos < n then begin
    let rem = r.rlen - r.rpos in
    Bytes.blit r.rbuf r.rpos r.rbuf 0 rem;
    r.rbase <- r.rbase + r.rpos;
    r.rpos <- 0;
    r.rlen <- rem;
    while r.rlen < n do
      let k = input r.ic r.rbuf r.rlen (Bytes.length r.rbuf - r.rlen) in
      if k = 0 then corrupt "truncated";
      r.rlen <- r.rlen + k
    done
  end

let get_raw_int r =
  ensure r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.rbuf r.rpos) in
  r.rpos <- r.rpos + 8;
  v

let get_int r =
  let v = get_raw_int r in
  r.rsum <- mix r.rsum v;
  v

(* every count names items that occupy at least one byte in the file, so
   the file length bounds every plausible count — a corrupted field that
   decodes huge is rejected here instead of reaching an allocation *)
let get_count r what =
  let v = get_int r in
  if v < 0 || v > r.rlimit then corrupt what;
  v

let get_str r =
  let n = get_count r "string length" in
  let b = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.rpos >= r.rlen then ensure r 1;
    let k = min (n - !filled) (r.rlen - r.rpos) in
    Bytes.blit r.rbuf r.rpos b !filled k;
    r.rpos <- r.rpos + k;
    filled := !filled + k
  done;
  let s = Bytes.unsafe_to_string b in
  r.rsum <- Hscd_util.Checksum.sum_string r.rsum s;
  s

let skip r n =
  ensure r n;
  r.rpos <- r.rpos + n

(* explicit in-order loop: the reader is effectful, so Array.init /
   List.init (unspecified application order) must not drive it *)
let read_seq n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

let read_magic r =
  if r.rlimit - tell r < 8 then corrupt "not a binary trace: short file";
  ensure r 8;
  let m = Bytes.sub_string r.rbuf r.rpos 8 in
  r.rpos <- r.rpos + 8;
  if m <> binary_magic then corrupt "not a binary trace: bad magic"

(* everything before the slab region, parsed and validated eagerly by
   both the buffered and the mmap loaders *)
type header = {
  h_layout : Shape.layout;
  h_golden : int array;
  h_symtab : Hscd_util.Symtab.t;
  h_n_syms : int;
  h_max_code : int;
  h_rmark_table : Event.rmark array;
  h_total_events : int;
  h_n_slots : int;
  h_max_tickets : int;
  h_epochs : Trace.pepoch array;
  h_chunk_words : int;
  h_sums : int array;  (** [5 * nchunks], row-major by slab *)
  h_slab_base : int;  (** absolute file offset of the slab region *)
}

let read_header r : header =
  let total_words = get_count r "total_words" in
  let n_arrays = get_count r "array count" in
  let array_list =
    read_seq n_arrays (fun () ->
        let name = get_str r in
        let base = get_int r in
        if base < 0 then corrupt "array base";
        let n_dims = get_count r "dim count" in
        let dims = read_seq n_dims (fun () -> get_int r) in
        if List.exists (fun d -> d <= 0) dims then corrupt "array dimension";
        (name, base, dims))
  in
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (name, base, dims) ->
      Hashtbl.replace arrays name { Shape.name; dims; size = Shape.size_of_dims dims; base })
    array_list;
  let layout = { Shape.arrays; total_words } in
  let golden_len = get_count r "golden length" in
  let golden = Array.make golden_len 0 in
  let nz = get_count r "golden nonzeros" in
  for _ = 1 to nz do
    let i = get_int r in
    let v = get_int r in
    if i < 0 || i >= golden_len then corrupt "golden index";
    golden.(i) <- v
  done;
  let n_syms = get_count r "symbol count" in
  let names = read_seq n_syms (fun () -> get_str r) in
  let symtab = Hscd_util.Symtab.of_names names in
  let max_code = get_count r "rmark max code" in
  let rmark_table = Event.Code.rmark_table ~max_code in
  let p_total_events = get_count r "total events" in
  let n_slots = get_count r "slot count" in
  let p_max_tickets = get_count r "max tickets" in
  let n_epochs = get_count r "epoch count" in
  let epoch_list =
    read_seq n_epochs (fun () ->
        let p_kind =
          match get_int r with
          | 0 -> Trace.Serial
          | 1 ->
            let lo = get_int r in
            let hi = get_int r in
            Trace.Parallel { lo; hi }
          | _ -> corrupt "epoch kind"
        in
        let p_n_tickets = get_int r in
        (* replay sizes its ticket slots by the maximum and grants tickets
           in order, so the tasks' ranges must tile [0, p_n_tickets) in
           rank order *)
        if p_n_tickets < 0 || p_n_tickets > p_max_tickets then corrupt "ticket count";
        let n_tasks = get_count r "task count" in
        let next_ticket = ref 0 in
        let task_list =
          read_seq n_tasks (fun () ->
              let p_iter = get_int r in
              let off = get_int r in
              let len = get_int r in
              let ticket0 = get_int r in
              let n_locks = get_int r in
              if off < 0 || len < 0 || off + len > n_slots then corrupt "task bounds";
              if ticket0 <> !next_ticket || n_locks < 0 then corrupt "task tickets";
              next_ticket := ticket0 + n_locks;
              { Trace.p_iter; off; len; ticket0; n_locks })
        in
        if !next_ticket <> p_n_tickets then corrupt "ticket count";
        { Trace.p_kind; p_tasks = Array.of_list task_list; p_n_tickets })
  in
  (* not an item count (a small trace still records the full chunk
     granule), so range-check directly instead of via [get_count] *)
  let cw = get_int r in
  if cw < 1 || cw > 1 lsl 30 then corrupt "chunk words";
  let nchunks = chunks_of ~n:n_slots ~cw in
  let sums = Array.make (5 * nchunks) 0 in
  for i = 0 to (5 * nchunks) - 1 do
    sums.(i) <- get_int r
  done;
  let sum = r.rsum in
  if get_raw_int r <> sum then corrupt "header checksum mismatch";
  skip r ((8 - (tell r mod 8)) mod 8);
  let slab_base = tell r in
  (* nothing follows the slabs, so truncation (and trailing junk) is
     caught before any slab word is read or mapped *)
  if r.rlimit <> slab_base + (5 * n_slots * 8) then corrupt "file length";
  {
    h_layout = layout;
    h_golden = golden;
    h_symtab = symtab;
    h_n_syms = n_syms;
    h_max_code = max_code;
    h_rmark_table = rmark_table;
    h_total_events = p_total_events;
    h_n_slots = n_slots;
    h_max_tickets = p_max_tickets;
    h_epochs = Array.of_list epoch_list;
    h_chunk_words = cw;
    h_sums = sums;
    h_slab_base = slab_base;
  }

(* per-slot structural validation; the slabs' interplay (the opcode says
   what the other fields mean) means it runs over a slot range, not per
   chunk *)
let validate_slots (p : Trace.packed) ~n_syms ~max_code lo hi =
  let total_words = p.p_layout.Shape.total_words in
  for i = lo to hi - 1 do
    let op = Slab.get p.ops i and addr = Slab.get p.addrs i in
    if op < Event.Code.compute || op > Event.Code.unlock then corrupt "opcode";
    if op = Event.Code.compute && addr < 0 then corrupt "compute count";
    if op = Event.Code.read || op = Event.Code.write then begin
      if Slab.get p.arrs i < 0 || Slab.get p.arrs i >= n_syms then corrupt "array id";
      if addr < 0 || addr >= total_words then corrupt "address"
    end;
    if op = Event.Code.read && (Slab.get p.marks i < 0 || Slab.get p.marks i > max_code) then
      corrupt "mark code"
  done

let packed_of_header (h : header) slabs : Trace.packed =
  {
    Trace.ops = slabs.(0);
    addrs = slabs.(1);
    values = slabs.(2);
    marks = slabs.(3);
    arrs = slabs.(4);
    p_epochs = h.h_epochs;
    symtab = h.h_symtab;
    rmark_table = h.h_rmark_table;
    p_layout = h.h_layout;
    p_golden = h.h_golden;
    p_total_events = h.h_total_events;
    n_slots = h.h_n_slots;
    p_max_tickets = h.h_max_tickets;
  }

(* one slab via the buffered reader, verifying each chunk as it streams
   past *)
let read_slab r ~n ~cw ~sums ~slab =
  let s = Slab.create (max 1 n) in
  let nchunks = chunks_of ~n ~cw in
  for c = 0 to nchunks - 1 do
    let read i =
      let v = get_raw_int r in
      Slab.set s i v;
      v
    in
    if chunk_sum ~slab ~n ~cw c read <> sums.((slab * nchunks) + c) then corrupt "slab chunk checksum"
  done;
  s

let read_packed_channel ic : Trace.packed =
  let r = reader ic in
  read_magic r;
  let h = read_header r in
  let n = h.h_n_slots in
  let slabs = Array.make 5 (Slab.create 1) in
  for j = 0 to 4 do
    slabs.(j) <- read_slab r ~n ~cw:h.h_chunk_words ~sums:h.h_sums ~slab:j
  done;
  let p = packed_of_header h slabs in
  validate_slots p ~n_syms:h.h_n_syms ~max_code:h.h_max_code 0 n;
  p

(** Load a binary packed trace, validating structure and checksum; raises
    [Hscd_error.Error] (kind [Corrupt]) on anything truncated, corrupt,
    or not in the format, and (kind [Io]) on OS-level failures. *)
let read_packed path =
  let ic =
    try open_in_bin path with Sys_error m -> Err.fail Err.Io "Trace_io: %s" m
  in
  let p =
    try read_packed_channel ic
    with exn ->
      close_in_noerr ic;
      raise exn
  in
  close_in ic;
  p

(** {!read_packed} as a [result] — the typed-error API: [Error] has kind
    [Corrupt] for format/checksum violations, [Io] for OS failures, and
    never lets an exception escape. *)
let read_packed_result path =
  Err.guard ~context:path (fun () -> read_packed path)

(** {!load} as a [result]: [Parse] for syntax errors, [Io] for OS
    failures. *)
let load_result path =
  Err.guard ~default:Err.Parse ~context:path (fun () -> load path)

(* ------------------------------------------------------------------ *)
(* Zero-copy loading: the slab region [Unix.map_file]d straight into     *)
(* the packed trace's Bigarray slabs. The header is parsed and verified  *)
(* eagerly (it is small); slab words are faulted in by the kernel on     *)
(* first access and checked lazily, one 512 KiB chunk at a time, as the  *)
(* replay front reaches them — opening a trace and replaying its first   *)
(* epoch touches O(header + first epoch) bytes, not O(file).             *)
(* ------------------------------------------------------------------ *)

(* per-epoch [lo, hi) slot span, for chunk-granular lazy validation *)
let epoch_spans (p : Trace.packed) =
  Array.map
    (fun (e : Trace.pepoch) ->
      Array.fold_left
        (fun (lo, hi) (t : Trace.ptask) -> (min lo t.Trace.off, max hi (t.Trace.off + t.Trace.len)))
        (max_int, 0) e.Trace.p_tasks
      |> fun (lo, hi) -> if hi <= 0 then (0, 0) else (lo, hi))
    p.Trace.p_epochs

module Mapped = struct
  type t = {
    m_trace : Trace.packed;
    m_chunk_words : int;
    m_nchunks : int;  (* per slab *)
    m_sums : int array;  (* [5 * m_nchunks]; unused once every chunk is ok *)
    m_chunk_ok : Bytes.t;  (* memo: '\001' once a chunk checksum verified *)
    m_epoch_ok : Bytes.t;  (* memo: '\001' once an epoch's slots verified *)
    m_spans : (int * int) array;
    m_n_syms : int;
    m_max_code : int;
  }

  let trace m = m.m_trace

  let slab_of m j =
    let p = m.m_trace in
    match j with
    | 0 -> p.Trace.ops
    | 1 -> p.Trace.addrs
    | 2 -> p.Trace.values
    | 3 -> p.Trace.marks
    | _ -> p.Trace.arrs

  let validate_chunk m j c =
    let idx = (j * m.m_nchunks) + c in
    if Bytes.get m.m_chunk_ok idx = '\000' then begin
      let n = m.m_trace.Trace.n_slots in
      if chunk_sum ~slab:j ~n ~cw:m.m_chunk_words c (Slab.get (slab_of m j)) <> m.m_sums.(idx) then
        corrupt "slab chunk checksum";
      Bytes.set m.m_chunk_ok idx '\001'
    end

  (** Verify every chunk overlapping epoch [e]'s slot span plus the
      structural per-slot invariants, memoized. Raises [Hscd_error.Error]
      (kind [Corrupt]) — wire it to {!Engine.run}'s [on_epoch] so a
      corrupted region is rejected when replay reaches it. *)
  let validate_epoch m e =
    if e >= 0 && e < Bytes.length m.m_epoch_ok && Bytes.get m.m_epoch_ok e = '\000' then begin
      let lo, hi = m.m_spans.(e) in
      if hi > lo then begin
        let cw = m.m_chunk_words in
        for j = 0 to 4 do
          for c = lo / cw to (hi - 1) / cw do
            validate_chunk m j c
          done
        done;
        validate_slots m.m_trace ~n_syms:m.m_n_syms ~max_code:m.m_max_code lo hi
      end;
      Bytes.set m.m_epoch_ok e '\001'
    end

  (** Force full validation (all chunks, all epochs), for callers that
      read slots outside replay order. *)
  let validate_all m =
    for j = 0 to 4 do
      for c = 0 to m.m_nchunks - 1 do
        validate_chunk m j c
      done
    done;
    for e = 0 to Bytes.length m.m_epoch_ok - 1 do
      validate_epoch m e
    done

  (* a trace loaded eagerly through the buffered reader: everything is
     already verified, the memos start full *)
  let of_validated (p : Trace.packed) =
    let nchunks = chunks_of ~n:p.Trace.n_slots ~cw:chunk_words in
    {
      m_trace = p;
      m_chunk_words = chunk_words;
      m_nchunks = nchunks;
      m_sums = [||];
      m_chunk_ok = Bytes.make (5 * nchunks) '\001';
      m_epoch_ok = Bytes.make (Array.length p.Trace.p_epochs) '\001';
      m_spans = epoch_spans p;
      m_n_syms = Array.length (Hscd_util.Symtab.names p.Trace.symtab);
      m_max_code = Array.length p.Trace.rmark_table - 1;
    }
end

(** Open a binary packed trace with the slab region memory-mapped
    zero-copy. Big-endian hosts and empty slab regions fall back to the
    buffered reader (returning a fully validated {!Mapped.t}); otherwise
    the file is mapped and validated lazily.
    Raises [Hscd_error.Error]: [Io] for OS/mmap failures, [Corrupt] for
    header damage (slab damage surfaces from {!Mapped.validate_epoch}). *)
let map_packed path : Mapped.t =
  let ic = try open_in_bin path with Sys_error m -> Err.fail Err.Io "Trace_io: %s" m in
  let m =
    try
      let r = reader ic in
      read_magic r;
      let h = read_header r in
      if Sys.big_endian || h.h_n_slots = 0 then begin
        seek_in ic 0;
        Mapped.of_validated (read_packed_channel ic)
      end
      else begin
        let region =
          try
            Bigarray.array1_of_genarray
              (Unix.map_file (Unix.descr_of_in_channel ic)
                 ~pos:(Int64.of_int h.h_slab_base) Bigarray.int Bigarray.c_layout false
                 [| 5 * h.h_n_slots |])
          with Unix.Unix_error (e, _, _) ->
            Err.fail Err.Io "Trace_io: mmap %s: %s" path (Unix.error_message e)
        in
        let slab j = Slab.sub region (j * h.h_n_slots) h.h_n_slots in
        let p = packed_of_header h [| slab 0; slab 1; slab 2; slab 3; slab 4 |] in
        let nchunks = chunks_of ~n:h.h_n_slots ~cw:h.h_chunk_words in
        {
          Mapped.m_trace = p;
          m_chunk_words = h.h_chunk_words;
          m_nchunks = nchunks;
          m_sums = h.h_sums;
          m_chunk_ok = Bytes.make (5 * nchunks) '\000';
          m_epoch_ok = Bytes.make (Array.length h.h_epochs) '\000';
          m_spans = epoch_spans p;
          m_n_syms = h.h_n_syms;
          m_max_code = h.h_max_code;
        }
      end
    with exn ->
      close_in_noerr ic;
      raise exn
  in
  close_in ic;
  m

(** {!map_packed} as a [result], mirroring {!read_packed_result}. *)
let map_packed_result path = Err.guard ~context:path (fun () -> map_packed path)

(** Cheap sniff: does [path] start with the binary magic?
    (Lets the CLI auto-detect binary vs. text traces.) *)
let is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false (* unopenable means "not binary" too *)
  | ic ->
  let b = Bytes.create (String.length binary_magic) in
  let ok =
    (* any read failure (not just a short file) means "not binary" — the
       caller's real open will surface the typed error; what matters here
       is that the sniff descriptor is closed on every path *)
    try
      really_input ic b 0 (Bytes.length b);
      let m = Bytes.to_string b in
      m = binary_magic
    with End_of_file | Sys_error _ -> false
  in
  close_in_noerr ic;
  ok

(** Structural equality of packed traces over their *logical* content:
    live slab prefixes (capacities may differ between [pack] and a grown
    {!Trace.Builder}), descriptors, interner contents, marks table,
    address map, and golden memory. *)
let equal_packed (a : Trace.packed) (b : Trace.packed) =
  let n = a.Trace.n_slots in
  let prefix_equal (x : Slab.t) (y : Slab.t) =
    Slab.length x >= n && Slab.length y >= n
    &&
    let rec go i = i >= n || (Slab.get x i = Slab.get y i && go (i + 1)) in
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
  && prefix_equal a.Trace.ops b.Trace.ops
  && prefix_equal a.Trace.addrs b.Trace.addrs
  && prefix_equal a.Trace.values b.Trace.values
  && prefix_equal a.Trace.marks b.Trace.marks
  && prefix_equal a.Trace.arrs b.Trace.arrs
