(** Memory events: the interface between the language/compiler front half
    and the cache/coherence back half. *)

type rmark = Unmarked | Normal_read | Time_read of int | Bypass_read
type wmark = Normal_write | Bypass_write

type t =
  | Compute of int  (** pure computation: that many CPU cycles *)
  | Read of { addr : int; mark : rmark; value : int; array : string }
      (** [value] is the golden (sequentially consistent) value the read
          must observe; the engine checks every scheme against it *)
  | Write of { addr : int; mark : wmark; value : int; array : string }
  | Lock  (** acquire the global critical-section lock *)
  | Unlock

val of_ast_rmark : Hscd_lang.Ast.rmark -> rmark
val of_ast_wmark : Hscd_lang.Ast.wmark -> wmark

(** Integer encodings for the packed (structure-of-arrays) trace form. *)
module Code : sig
  val compute : int
  val read : int
  val write : int
  val lock : int
  val unlock : int

  (** Read-mark codes: 0 Unmarked, 1 Normal, 2 Bypass, [rmark_base + d] for
      [Time_read d]. *)
  val rmark_base : int

  val of_rmark : rmark -> int
  val rmark_of : int -> rmark

  (** Preallocated decode table for codes [0 .. max_code] (at least the
      three non-Time marks), so the replay loop never constructs a
      [Time_read] cell. *)
  val rmark_table : max_code:int -> rmark array

  val of_wmark : wmark -> int
  val wmark_of : int -> wmark

  (** Allocation-free AST-mark -> code conversions for the streaming trace
      builder (no intermediate {!rmark}/{!wmark} cell). *)
  val of_ast_rmark : Hscd_lang.Ast.rmark -> int

  val of_ast_wmark : Hscd_lang.Ast.wmark -> int
end
