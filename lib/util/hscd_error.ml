type kind =
  | Usage
  | Parse
  | Io
  | Corrupt
  | Worker
  | Timeout
  | Check
  | Internal
  | Busy
  | Rejected

type t = {
  kind : kind;
  message : string;
  context : string list;
  backtrace : string option;
}

let kind_name = function
  | Usage -> "usage"
  | Parse -> "parse"
  | Io -> "io"
  | Corrupt -> "corrupt"
  | Worker -> "worker"
  | Timeout -> "timeout"
  | Check -> "check"
  | Internal -> "internal"
  | Busy -> "busy"
  | Rejected -> "rejected"

exception Error of t

let make ?(context = []) ?backtrace kind message = { kind; message; context; backtrace }

let fail ?context kind fmt =
  Printf.ksprintf (fun message -> raise (Error (make ?context kind message))) fmt

let error ?context kind fmt =
  Printf.ksprintf (fun message -> Result.Error (make ?context kind message)) fmt
let add_context frame t = { t with context = t.context @ [ frame ] }

let backtrace_now () =
  match Printexc.get_backtrace () with "" -> None | bt -> Some bt

(* Pre-typed exceptions keep their classification; stdlib exceptions are
   mapped by what they mean, not where they were raised. *)
let of_exn ?(default = Internal) exn =
  match exn with
  | Error t -> t
  | Failure m -> { kind = default; message = m; context = []; backtrace = backtrace_now () }
  | Sys_error m -> { kind = Io; message = m; context = []; backtrace = backtrace_now () }
  | Invalid_argument m ->
    { kind = Internal; message = m; context = []; backtrace = backtrace_now () }
  | Out_of_memory | Stack_overflow ->
    {
      kind = Internal;
      message = Printexc.to_string exn;
      context = [];
      backtrace = backtrace_now ();
    }
  | exn ->
    {
      kind = default;
      message = Printexc.to_string exn;
      context = [];
      backtrace = backtrace_now ();
    }

let guard ?default ?context f =
  match f () with
  | v -> Ok v
  | exception exn ->
    let t = of_exn ?default exn in
    Result.Error (match context with None -> t | Some c -> add_context c t)

let get_exn = function Ok v -> v | Result.Error t -> raise (Error t)
(* [Busy] is backpressure, not failure: the refused request is valid and
   worth re-offering once the queue drains. [Rejected] is a policy verdict
   (unknown tenant, over quota, invalid job) — retrying cannot help. *)
let transient t = match t.kind with Io | Worker | Timeout | Busy -> true | _ -> false

let exit_code t =
  match t.kind with Usage -> 2 | Internal -> 3 | Busy -> 4 | Rejected -> 5 | _ -> 1

let to_string t =
  let ctx =
    match t.context with [] -> "" | cs -> Printf.sprintf " (in %s)" (String.concat ", in " cs)
  in
  Printf.sprintf "%s: %s%s" (kind_name t.kind) t.message ctx

(* render the payload, not "Hscd_error.Error(_)" *)
let () =
  Printexc.register_printer (function Error t -> Some ("hscd error: " ^ to_string t) | _ -> None)
