(** Fixed-capacity bit sets, used for directory presence vectors. *)

type t

(** [create n] is an empty set over the universe [0 .. n-1]. *)
val create : int -> t

val capacity : t -> int

(** Membership / insertion / removal raise [Invalid_argument] outside the
    universe. *)
val mem : t -> int -> bool

val add : t -> int -> unit
val remove : t -> int -> unit

(** Remove every element. *)
val clear : t -> unit

(** O(1): a count kept by [add], [remove] and [clear]. *)
val cardinal : t -> int

val is_empty : t -> bool

(** Iterate over members in increasing order, word by word: zero words
    are skipped and each set bit is visited once. [f] must not modify the
    set. *)
val iter : (int -> unit) -> t -> unit

(** [next t i] is the smallest member [>= i], or -1 when there is none:
    [let p = ref (next t 0) in while !p >= 0 do ...; p := next t (!p + 1)
    done] walks the members in increasing order without a closure. *)
val next : t -> int -> int

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Members in increasing order. *)
val elements : t -> int list

val copy : t -> t
val equal : t -> t -> bool
