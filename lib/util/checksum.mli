(** The order-sensitive avalanche fold behind every checksum the project
    writes: the binary trace format ([Trace_io]), the checkpoint
    {!Journal} and the service's wire frames ([Protocol]). A single
    flipped bit anywhere in the folded stream avalanches through the final
    sum.

    Changing either function makes every existing journal and binary
    trace unreadable; the test suite pins their values. *)

(** [mix h v] folds one int into the running sum [h]:
    [(h lxor v) * 0x9E3779B1], then [(h lxor (h lsr 27)) * 0x85EBCA77]. *)
val mix : int -> int -> int

(** [sum_string h s] folds each byte of [s], in order, with {!mix}. *)
val sum_string : int -> string -> int
