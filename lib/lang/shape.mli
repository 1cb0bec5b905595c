(** Array shapes and the global flat (word-addressed) address map. *)

type t = {
  name : string;
  dims : int list;
  size : int;  (** total words *)
  base : int;  (** first word address *)
}

type layout = { arrays : (string, t) Hashtbl.t; total_words : int }

(** Total words of an array with the given dimensions; raises
    [Invalid_argument] on empty or non-positive dimensions. *)
val size_of_dims : int list -> int

(** Build the address map; arrays are padded to a line multiple so two
    arrays never share a cache line. *)
val layout : ?line_words:int -> Ast.decl list -> layout

(** Raises [Invalid_argument] for unknown arrays. *)
val find : layout -> string -> t

val mem : layout -> string -> bool

(** Row-major flattening with bounds checking. *)
val flatten : t -> int list -> int

(** Word address of an element. *)
val address : layout -> string -> int list -> int

(** [address1 t i] is the word address of [t]'s element [i] without an
    index list; [address2] likewise for two subscripts. Same bounds
    checking as {!flatten}, but a wrong subscript count is reported before
    any bound. *)
val address1 : t -> int -> int

val address2 : t -> int -> int -> int

(** Which array (and flat offset) owns a word address; [None] on padding. *)
val owner : layout -> int -> (t * int) option

(** Arrays sorted by base address. *)
val arrays_in_order : layout -> t list
