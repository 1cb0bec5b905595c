let mix h v =
  let h = (h lxor v) * 0x9E3779B1 in
  (h lxor (h lsr 27)) * 0x85EBCA77

let sum_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h
