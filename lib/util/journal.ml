let magic = "HSCDJNL1"

let record_sum ~key payload =
  Checksum.(
    sum_string (sum_string (mix (mix 0 (String.length key)) (String.length payload)) key) payload)

type record = { key : string; offset : int; payload : string }

type t = {
  path : string;
  oc : out_channel;
  scratch : Bytes.t;
  mutable size : int;  (* bytes in the file: where the next record starts *)
  mutable rd : Unix.file_descr option;  (* read-back descriptor, opened on first {!read} *)
  mutable closed : bool;
}

(* ---- reading records ---- *)

(* One record at the reader's position. [really buf n] fills the first
   [n] bytes of [buf] or raises [End_of_file]; a length above [limit]
   or a checksum mismatch raises [Exit]. *)
let read_record ~limit really =
  let scratch = Bytes.create 8 in
  let read_int () =
    really scratch 8;
    Int64.to_int (Bytes.get_int64_le scratch 0)
  in
  let read_str n =
    let b = Bytes.create n in
    really b n;
    Bytes.unsafe_to_string b
  in
  let key_len = read_int () in
  if key_len < 0 || key_len > limit then raise Exit;
  let key = read_str key_len in
  let payload_len = read_int () in
  if payload_len < 0 || payload_len > limit then raise Exit;
  let payload = read_str payload_len in
  if read_int () <> record_sum ~key payload then raise Exit;
  (key, payload)

(* ---- recovery scan ---- *)

(* Reads the valid prefix of [path]: returns records (append order) and
   the byte offset where the valid prefix ends. A record that is
   truncated, has an implausible length, or fails its checksum ends the
   scan — it and everything after it are the torn tail. *)
let scan path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  let m = Bytes.create (String.length magic) in
  (match really_input ic m 0 (Bytes.length m) with
  | () -> ()
  | exception End_of_file ->
    raise (Hscd_error.Error (Hscd_error.make Hscd_error.Corrupt (path ^ ": not a journal (short file)"))));
  if Bytes.to_string m <> magic then
    raise (Hscd_error.Error (Hscd_error.make Hscd_error.Corrupt (path ^ ": not a journal (bad magic)")));
  let records = ref [] in
  let valid_end = ref (String.length magic) in
  (try
     while !valid_end < len do
       let key, payload = read_record ~limit:len (fun b n -> really_input ic b 0 n) in
       records := { key; offset = !valid_end; payload } :: !records;
       valid_end := pos_in ic
     done
   with End_of_file | Exit -> ());
  (List.rev !records, !valid_end, len)

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match scan path with
    | records, _, _ -> Ok (List.map (fun r -> (r.key, r.payload)) records)
    | exception Hscd_error.Error e -> Error e
    | exception exn -> Error (Hscd_error.of_exn ~default:Hscd_error.Io exn)

(* ---- reading back ---- *)

let really_read fd b n =
  let rec go off =
    if off < n then
      match Unix.read fd b off (n - off) with
      | 0 -> raise End_of_file
      | k -> go (off + k)
  in
  go 0

let read t offset =
  if t.closed then Hscd_error.error Hscd_error.Internal "Journal.read: closed handle"
  else if offset < String.length magic || offset >= t.size then
    Hscd_error.error Hscd_error.Corrupt "%s: offset %d is outside the journal" t.path offset
  else
    match
      let fd =
        match t.rd with
        | Some fd -> fd
        | None ->
          let fd = Unix.openfile t.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
          t.rd <- Some fd;
          fd
      in
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      read_record ~limit:(t.size - offset) (really_read fd)
    with
    | record -> Ok record
    | exception (End_of_file | Exit) ->
      Hscd_error.error Hscd_error.Corrupt "%s: no valid record at offset %d" t.path offset
    | exception exn -> Error (Hscd_error.of_exn ~default:Hscd_error.Io exn)

(* ---- appending ---- *)

let put_int oc scratch v =
  Bytes.set_int64_le scratch 0 (Int64.of_int v);
  output_bytes oc scratch

let append t ~key payload =
  if t.closed then Hscd_error.fail Hscd_error.Internal "Journal.append: closed handle";
  let offset = t.size in
  put_int t.oc t.scratch (String.length key);
  output_string t.oc key;
  put_int t.oc t.scratch (String.length payload);
  output_string t.oc payload;
  put_int t.oc t.scratch (record_sum ~key payload);
  flush t.oc;
  (* two lengths and a checksum, 8 bytes each, around key and payload *)
  t.size <- offset + 24 + String.length key + String.length payload;
  (* durable once append returns: a kill after this point loses nothing *)
  (try Unix.fsync (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ | Sys_error _ -> ());
  offset

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc;
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.rd;
    t.rd <- None
  end

let open_append path =
  match
    if not (Sys.file_exists path) then begin
      let oc = open_out_bin path in
      (* close-on-error: a full disk (or any write failure) must not leak
         the descriptor — repeated failing opens would exhaust the fd
         budget long before anyone notices the real problem *)
      (try
         output_string oc magic;
         flush oc
       with exn ->
         close_out_noerr oc;
         raise exn);
      (oc, [], String.length magic)
    end
    else begin
      let records, valid_end, len = scan path in
      (* drop a torn tail atomically: rewrite the valid prefix and rename
         over the original, so a crash here still leaves a valid journal;
         the offsets of the records it keeps do not move *)
      if valid_end < len then begin
        let prefix =
          let ic = open_in_bin path in
          Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
              really_input_string ic valid_end)
        in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        (try
           output_string oc prefix;
           close_out oc
         with exn ->
           close_out_noerr oc;
           raise exn);
        Sys.rename tmp path
      end;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      (oc, records, valid_end)
    end
  with
  | oc, records, size ->
    Ok ({ path; oc; scratch = Bytes.create 8; size; rd = None; closed = false }, records)
  | exception Hscd_error.Error e -> Error e
  | exception exn -> Error (Hscd_error.of_exn ~default:Hscd_error.Io exn)
