(** Typed errors for the production paths (trace I/O, the compile cache,
    the experiment runner, the CLI). A value of {!t} says {e what class}
    of failure happened ({!kind}), {e where} (a context trail, innermost
    first), and carries the original message and, when available, the
    backtrace of the exception it was converted from.

    The error taxonomy decides policy mechanically:
    - {!transient} errors (I/O hiccups, worker crashes, task timeouts)
      are worth retrying — the supervised {!Pool} does so with backoff;
    - {!exit_code} maps a kind to the normalized [hscd] exit codes
      (0 ok, 1 result failure, 2 usage, 3 internal). *)

type kind =
  | Usage  (** bad user input: unknown benchmark, malformed flag *)
  | Parse  (** PFL source or text-trace syntax error *)
  | Io  (** OS-level file/channel failure *)
  | Corrupt  (** checksum/framing/validation failure in a stored artifact *)
  | Worker  (** a pool task raised *)
  | Timeout  (** a pool task exceeded its deadline *)
  | Check  (** a result-level failure: fuzz found bugs, schemes diverged *)
  | Internal  (** invariant breach — a bug in hscd itself *)
  | Busy
      (** admission control said "not now": a bounded queue was full or the
          service is draining — backpressure, retryable by design *)
  | Rejected
      (** admission control said "never": unknown tenant, over quota, or an
          invalid job — retrying the same request cannot succeed *)

type t = {
  kind : kind;
  message : string;
  context : string list;  (** innermost first, e.g. ["cell TRFD/TPI"; "sweep"] *)
  backtrace : string option;
}

val kind_name : kind -> string

(** Raised by the [*_exn] convenience wrappers at API boundaries that
    keep an exception-style signature. *)
exception Error of t

val make : ?context:string list -> ?backtrace:string -> kind -> string -> t

(** [fail kind fmt ...] raises {!Error}. *)
val fail : ?context:string list -> kind -> ('a, unit, string, 'b) format4 -> 'a

(** [error kind fmt ...] builds [Result.Error]. *)
val error : ?context:string list -> kind -> ('a, unit, string, ('b, t) result) format4 -> 'a

(** Push an enclosing context frame (outermost last). *)
val add_context : string -> t -> t

(** Classify an arbitrary exception. {!Error} payloads pass through
    untouched; [Failure]/[Sys_error]/parse-ish exceptions get mapped by
    content; anything else defaults to [default] (default [Internal]).
    Captures the current backtrace. *)
val of_exn : ?default:kind -> exn -> t

(** Run [f], converting any exception via {!of_exn}. *)
val guard : ?default:kind -> ?context:string -> (unit -> 'a) -> ('a, t) result

(** Re-raise an [Error e] result as {!Error}; identity on [Ok]. *)
val get_exn : ('a, t) result -> 'a

(** Is this error a plausible one-off worth retrying? ([Io], [Worker],
    [Timeout] and [Busy] are; corrupt artifacts, usage errors, logic
    errors and admission [Rejected]s are not.) *)
val transient : t -> bool

(** Normalized process exit code: [Usage] → 2, [Internal] → 3,
    [Busy] → 4, [Rejected] → 5, everything else → 1. *)
val exit_code : t -> int

(** One line: [kind: message (in context, in context)]. *)
val to_string : t -> string
