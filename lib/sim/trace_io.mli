(** Trace files, so a marked program's event stream can be generated once
    and replayed later (or inspected by hand). Two formats:

    - text, line-oriented:
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
    v}
    - binary ({!binary_magic}): a checksummed dump of the packed trace,
      its slots written as five field-major slabs, laid out in
      [trace_io.ml]. *)

(** {1 Text} *)

(** Write [p] in the text format. A boxed trace is saved as
    [save path (Trace.pack t)]. *)
val save : string -> Trace.packed -> unit

(** Load a text trace. Raises {!Hscd_util.Hscd_error.Error}: [Parse],
    naming the line, for a malformed line or one past a slot-field limit
    of {!Trace.packed}; [Parse] for a field the replay would index out of
    range; [Io] for OS failures. *)
val load : string -> Trace.t

(** {!load} as a [result]: [Parse] for syntax errors, [Io] for OS
    failures. *)
val load_result : string -> (Trace.t, Hscd_util.Hscd_error.t) result

(** Structural equality of traces (for round-trip tests). *)
val equal : Trace.t -> Trace.t -> bool

(** Read-mark spellings of the text format: [U], [N], [B], [T<d>]. *)
val mark_str : Hscd_arch.Event.rmark -> string

(** Raises a [Parse] error on anything [mark_str] does not write, and on
    a Time-Read distance past {!Trace.max_time_read}. *)
val mark_of_str : string -> Hscd_arch.Event.rmark

(** Write-mark spellings: [N], [B]. *)
val wmark_str : Hscd_arch.Event.wmark -> string

val wmark_of_str : string -> Hscd_arch.Event.wmark

(** {1 Binary} *)

(** The binary format's first eight bytes. *)
val binary_magic : string

(** Write [p] in the binary format. [chunk_words] (default 65536) is the
    number of slab words each entry of the checksum table covers; tests
    shrink it to cover many chunks with a small trace. *)
val write_packed : ?chunk_words:int -> string -> Trace.packed -> unit

(** Load a binary trace, checking the header checksum, every slab
    chunk's checksum and every slot's fields before packing them into
    slot words. A field past its slot field, or set in a slot that does
    not use it, is [Corrupt]. Raises
    {!Hscd_util.Hscd_error.Error}: [Corrupt] for anything truncated,
    damaged or not in the format, [Io] for OS failures. *)
val read_packed : string -> Trace.packed

(** {!read_packed} as a [result]; never lets an exception escape. *)
val read_packed_result : string -> (Trace.packed, Hscd_util.Hscd_error.t) result

(** Does [path] start with {!binary_magic}? [false] for a file that
    cannot be opened or read. *)
val is_binary : string -> bool

(** Structural equality of packed traces over their logical content: the
    live slot words (a trace without slots still holds one slot's), descriptors,
    interner contents, marks table, address map, and golden memory. *)
val equal_packed : Trace.packed -> Trace.packed -> bool
