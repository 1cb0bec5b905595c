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
    The header is line 1 and only line 1. The [words], [array] and
    [golden] lines come before the first [epoch] line, which fixes the
    address map, and [words] comes once, before any [golden] line.
    [words] may exceed the declared arrays' extent (the largest
    [base + size]) only by the padding of one line, so by at most the
    extent rounded up to [Config.max_line_words]. *)

(** Write [p] in the text format. A boxed trace is saved as
    [save path (Trace.pack t)]. *)
val save : string -> Trace.packed -> unit

(** Load a text trace straight into the packed form: each line goes
    into {!Trace.Builder} as it is read, one slot per event line, so the
    result equals [Trace.pack] of the same events. Raises
    {!Hscd_util.Hscd_error.Error}: [Parse], naming the line, for a
    malformed line, a missing or repeated header (an old binary dump is
    named as such at line 1, its bytes not echoed), a header line after
    the first epoch, an event outside a task, a field the replay would
    index out of range (an address or golden index outside [words], an
    undeclared array), a [words] past the declared arrays' extent
    (named at the first [epoch] line, if the file has
    one), a negative compute count or a line past a
    slot-field limit of {!Trace.packed}; [Io] for OS failures. *)
val load : string -> Trace.packed

(** {!load} as a [result], with the path as the error's outer context. *)
val load_result : string -> (Trace.packed, Hscd_util.Hscd_error.t) result

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
