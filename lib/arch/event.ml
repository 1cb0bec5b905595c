(** Memory events produced by instrumented execution and consumed by the
    multiprocessor timing engine — the interface between the front half
    (language + compiler) and the back half (caches + coherence). *)

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

let of_ast_rmark : Hscd_lang.Ast.rmark -> rmark = function
  | Hscd_lang.Ast.Unmarked -> Unmarked
  | Hscd_lang.Ast.Normal_read -> Normal_read
  | Hscd_lang.Ast.Time_read d -> Time_read d
  | Hscd_lang.Ast.Bypass_read -> Bypass_read

let of_ast_wmark : Hscd_lang.Ast.wmark -> wmark = function
  | Hscd_lang.Ast.Normal_write -> Normal_write
  | Hscd_lang.Ast.Bypass_write -> Bypass_write

(** Integer encodings for the packed (structure-of-arrays) trace form:
    one opcode plus one mark code per event, so the replay hot path decodes
    events from unboxed [int array]s without constructing variants. *)
module Code = struct
  (* opcodes *)
  let compute = 0
  let read = 1
  let write = 2
  let lock = 3
  let unlock = 4

  (* read-mark codes: the Time-Read distance rides in the code itself *)
  let rmark_base = 3

  let of_rmark = function
    | Unmarked -> 0
    | Normal_read -> 1
    | Bypass_read -> 2
    | Time_read d ->
      if d < 0 then invalid_arg "Event.Code: negative Time_read distance";
      rmark_base + d

  let rmark_of = function
    | 0 -> Unmarked
    | 1 -> Normal_read
    | 2 -> Bypass_read
    | c -> Time_read (c - rmark_base)

  (** Decode table covering codes [0 .. max_code]: replay looks marks up by
      index so no [Time_read] cell is ever constructed in the hot loop. *)
  let rmark_table ~max_code = Array.init (max 3 max_code + 1) rmark_of

  (* write-mark codes (the mark slot is interpreted per opcode) *)
  let of_wmark = function Normal_write -> 0 | Bypass_write -> 1
  let wmark_of = function 0 -> Normal_write | _ -> Bypass_write

  (* straight AST-mark -> code conversions for the streaming trace builder:
     going through [of_ast_rmark] would allocate a fresh [Time_read] cell
     per marked read in the generation hot path *)
  let of_ast_rmark : Hscd_lang.Ast.rmark -> int = function
    | Hscd_lang.Ast.Unmarked -> 0
    | Hscd_lang.Ast.Normal_read -> 1
    | Hscd_lang.Ast.Bypass_read -> 2
    | Hscd_lang.Ast.Time_read d ->
      if d < 0 then invalid_arg "Event.Code: negative Time_read distance";
      rmark_base + d

  let of_ast_wmark : Hscd_lang.Ast.wmark -> int = function
    | Hscd_lang.Ast.Normal_write -> 0
    | Hscd_lang.Ast.Bypass_write -> 1
end
