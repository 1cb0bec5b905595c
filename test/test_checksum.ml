(** Pins the checksum fold every journal and wire frame is written with.
    A change to {!Hscd_util.Checksum} would make every existing journal
    unreadable, yet no round-trip test would notice (writer and reader
    would change together), so the values here are fixed constants. *)

module Checksum = Hscd_util.Checksum
module Journal = Hscd_util.Journal

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let file_digest path = Digest.to_hex (Digest.file path)

let test_mix () =
  List.iter
    (fun (h, v, want) ->
      Alcotest.(check int) (Printf.sprintf "mix %d %d" h v) want (Checksum.mix h v))
    [
      (0, 0, 0);
      (0, 1, -3259326027503411634);
      (12345, 678, -3784752534446305324);
      (-1, 42, -3833236984243293992);
      (max_int, min_int, -862469223066818363);
    ]

let test_sum_string () =
  List.iter
    (fun (h, s, want) ->
      Alcotest.(check int) (Printf.sprintf "sum_string %d %S" h s) want (Checksum.sum_string h s))
    [ (0, "", 0); (0, "hscd", -2984172819548808692); (7, "checksum fold", -2041010239539671669) ]

let test_journal_bytes () =
  let path = tmp "hscd_checksum_pin.jnl" in
  if Sys.file_exists path then Sys.remove path;
  let j, _ = Hscd_util.Hscd_error.get_exn (Journal.open_append path) in
  ignore (Journal.append j ~key:"cell" "payload");
  Journal.close j;
  let d = file_digest path in
  Sys.remove path;
  Alcotest.(check string) "journal digest" "d60da7f7dce4403de153e330ce2456d0" d

let test_frame_bytes () =
  Alcotest.(check string) "frame digest" "6eaca76ad91a6275f3f63324529cdf18"
    (Digest.to_hex (Digest.string (Hscd_service.Protocol.frame "hello")))

let suite =
  [
    Alcotest.test_case "mix on fixed inputs" `Quick test_mix;
    Alcotest.test_case "string fold on fixed inputs" `Quick test_sum_string;
    Alcotest.test_case "journal record bytes" `Quick test_journal_bytes;
    Alcotest.test_case "wire frame bytes" `Quick test_frame_bytes;
  ]
