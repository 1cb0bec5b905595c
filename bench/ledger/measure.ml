(** Clocks, order statistics, process counters and provenance. *)

let now = Span.now

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Median (mean of the middle pair for an even count). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Linear-interpolated percentile, [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(** First and third quartiles exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
    computes them; needs two values at least. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(** A /proc/<pid>/status field in kB ([VmHWM] = peak resident set). *)
let status_kb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            let prefix = field ^ ":" in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              match String.split_on_char ' ' (String.trim (String.sub line lp (String.length line - lp))) with
              | kb :: _ -> float_of_string kb
              | [] -> nan
            else go ()
        in
        go ())

let peak_rss_mb () = status_kb "VmHWM" /. 1024.0

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (read_lines "/proc/cpuinfo"))

(* The commit, read from .git without running git; "unknown" outside a
   git checkout. *)
let commit () =
  let first path = match read_lines path with l :: _ -> Some (String.trim l) | [] -> None in
  match first ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    if String.length head > 5 && String.sub head 0 5 = prefix then
      let ref_ = String.sub head 5 (String.length head - 5) in
      match first (Filename.concat ".git" ref_) with
      | Some sha -> sha
      | None -> (
        let packed =
          List.find_opt
            (fun l ->
              let n = String.length ref_ in
              String.length l > n && String.sub l (String.length l - n) n = ref_)
            (read_lines ".git/packed-refs")
        in
        match packed with Some l -> List.hd (String.split_on_char ' ' l) | None -> "unknown")
    else head

let provenance ~seed =
  Json.Obj
    [
      ("commit", Json.Str (commit ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("seed", Json.Num (float_of_int seed));
    ]

(** Run [op i] for i = 0, 1, ... until [seconds] have passed and at
    least [min_ops] ran, stopping only at a multiple of [batch] so each
    run covers whole rounds of the seeded input order. Each result goes
    to [check i], outside the operation's time. Returns the
    per-operation latencies in seconds and the wall time. *)
let loop ~seconds ~min_ops ~batch ~op ~check =
  let t0 = now () in
  let lat = ref [] in
  let i = ref 0 in
  while !i < min_ops || now () -. t0 < seconds || !i mod batch <> 0 do
    let s = now () in
    let r = op !i in
    lat := (now () -. s) :: !lat;
    check !i r;
    incr i
  done;
  (List.rev !lat, now () -. t0)

(** Median of [reps] timed set-ups. Every set-up but the last is torn
    down (untimed); the last one's value is returned. *)
let setup ?(teardown = ignore) ~reps f =
  let times = ref [] in
  let rec go k =
    let s = now () in
    let v = f () in
    times := (now () -. s) :: !times;
    if k < reps then begin
      teardown v;
      go (k + 1)
    end
    else v
  in
  let v = go 1 in
  (v, median !times)
