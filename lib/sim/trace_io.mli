(** Trace files, so a marked program's event stream can be generated once
    and replayed later (or inspected by hand). Regenerating a trace from
    its source is faster than loading it, so a file is for interchange;
    the one format is line-oriented text:
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
    The header is line 1 and only line 1. *)

(** Write [p] in the text format. A boxed trace is saved as
    [save path (Trace.pack t)]. *)
val save : string -> Trace.packed -> unit

(** Load a text trace. Raises {!Hscd_util.Hscd_error.Error}: [Parse],
    naming the line, for a malformed line, a missing or repeated header
    (an old binary dump is named as such at line 1, its bytes not
    echoed) or a line past a slot-field limit of {!Trace.packed}; [Parse]
    for a field the replay would index out of range; [Io] for OS
    failures. *)
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

(** Structural equality of packed traces over their logical content: the
    live slot words (a trace without slots still holds one slot's), descriptors,
    interner contents, marks table, address map, and golden memory. *)
val equal_packed : Trace.packed -> Trace.packed -> bool
