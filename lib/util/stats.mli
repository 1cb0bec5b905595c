(** Small statistics toolkit used by the metrics and experiment layers. *)

val mean : float list -> float

(** Nearest-rank percentile, [p] in [0, 100]. *)
val percentile : float -> float list -> float

(** Integer ratio as a float; 0 when the denominator is 0. *)
val ratio : int -> int -> float
