(* one bit per memory line: line [l] is bit [l land 7] of byte [l lsr 3] *)
type t = { maps : Bytes.t array; zero : Bytes.t  (** shared; never written *) }

let create ~processors ~lines =
  let zero = Bytes.make ((lines + 7) lsr 3) '\000' in
  { maps = Array.make processors zero; zero }

let mark t ~proc line =
  let m = t.maps.(proc) in
  let m =
    if m == t.zero then begin
      let own = Bytes.make (Bytes.length t.zero) '\000' in
      t.maps.(proc) <- own;
      own
    end
    else m
  in
  let b = line lsr 3 in
  Bytes.set_uint8 m b (Bytes.get_uint8 m b lor (1 lsl (line land 7)))

let was_fetched t ~proc line =
  Bytes.get_uint8 t.maps.(proc) (line lsr 3) land (1 lsl (line land 7)) <> 0
