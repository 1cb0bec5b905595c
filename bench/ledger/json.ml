(** Just enough JSON for the ledger's own files: result files, the
    expected-digest file and BENCHMARK.json. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every digit a float carries: whoever compares runs must be able to
   tell two runs apart, so nothing is rounded on the way out. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "Json.number: not finite"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write b (Str k);
        Buffer.add_string b ": ";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number_ () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          ws ();
          let k = string_ () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec elems acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; elems (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        elems []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_ ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse (really_input_string ic (in_channel_length ic)))

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* ---- accessors (raise [Parse_error] on a shape mismatch) ---- *)

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let member_opt k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr xs -> xs | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj kvs -> kvs | _ -> raise (Parse_error "expected an object")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_num = function Num f -> f | _ -> raise (Parse_error "expected a number")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected a boolean")
