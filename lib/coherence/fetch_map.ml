type t = { maps : Bytes.t array; zero : Bytes.t  (** shared; never written *) }

let create ~processors ~lines =
  let zero = Bytes.make lines '\000' in
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
  Bytes.set m line '\001'

let was_fetched t ~proc line = Bytes.get t.maps.(proc) line = '\001'
