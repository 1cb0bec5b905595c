(** Aligned plain-text tables, the uniform rendering of every reproduced
    paper table/figure. *)

type align = Left | Right

type t

(** [aligns] defaults to all-[Right]; must match the header width. *)
val create : title:string -> header:string list -> ?aligns:align list -> unit -> t

(** Raises [Invalid_argument] when the row width differs from the header. *)
val add_row : t -> string list -> unit

(** Footnote printed under the table. *)
val add_note : t -> string -> unit

(** Rows in insertion order. *)
val rows : t -> string list list

val render : t -> string
val print : t -> unit

(* Cell formatting helpers shared by all experiments. *)
val fi : int -> string
val ff1 : float -> string
val ff2 : float -> string

(** Fraction as a percentage ([0.123] -> ["12.30%"]). *)
val fpct : float -> string

(** Human-readable byte sizes. *)
val fbytes : int -> string
