module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Schedule = Hscd_sim.Schedule
module Snap = Hscd_coherence.Scheme.Snap

type t = {
  cfg : Config.t;
  migration : bool;
  lwe : int array;  (** last write epoch per word, -1 = never *)
  current : Bytes.t array;  (** per proc, per word: any resident copy is current *)
  writer : int array;  (** this epoch's plain writer task, -1 = none *)
  user : int array;  (** this epoch's plain accessor: -1 none, a task, -2 several *)
  cs : Bytes.t;  (** per word: touched inside a critical section this epoch *)
  mutable epoch : int;
}

let create (cfg : Config.t) ~words =
  {
    cfg;
    migration = cfg.scheduling = Config.Dynamic && cfg.migration_rate > 0.0;
    lwe = Array.make words (-1);
    current = Array.init cfg.processors (fun _ -> Bytes.make words '\000');
    writer = Array.make words (-1);
    user = Array.make words (-1);
    cs = Bytes.make words '\000';
    epoch = 0;
  }

let epoch r = r.epoch

let known_proc r ~serial ~ntasks rank =
  if serial then Some 0
  else if Schedule.is_static r.cfg then Some (Schedule.static_proc r.cfg ~ntasks rank)
  else None

let window r addr =
  if r.lwe.(addr) < 0 then None
  else
    let dist = r.epoch - r.lwe.(addr) in
    Some (if r.migration && dist > 0 then dist - 1 else dist)

let current r ~proc addr =
  r.lwe.(addr) < 0
  || match proc with Some p -> Bytes.get r.current.(p) addr = '\001' | None -> false

let check_read r ~proc addr (mark : Event.rmark) =
  match (mark, window r addr) with
  | Event.Time_read d, Some w when d > w ->
    Some (Printf.sprintf "Time_read %d of addr %d, sound window is %d" d addr w)
  | (Event.Normal_read | Event.Unmarked), _ when not (current r ~proc addr) ->
    Some (Printf.sprintf "Normal/Unmarked read of written addr %d without a current copy" addr)
  | _ -> None

let race r ~task ~write ~in_cs addr =
  let user = r.user.(addr) in
  if (in_cs && user <> -1) || ((not in_cs) && Bytes.get r.cs addr = '\001') then
    Some (Printf.sprintf "address %d mixes critical-section and plain accesses" addr)
  else
    (* a write races with another task's access, a read only with its write *)
    let other = if in_cs then -1 else if write then user else r.writer.(addr) in
    if other = -1 || other = task then None
    else
      let who = if other = -2 then "several tasks" else Printf.sprintf "task %d" other in
      Some
        (if write then Printf.sprintf "address %d raced (task %d wrote it, %s used it)" addr task who
         else Printf.sprintf "address %d raced (task %d read it, %s wrote it)" addr task who)

let written r addr = r.writer.(addr) >= 0

let touch r ~task ~write ~in_cs addr =
  if in_cs then Bytes.set r.cs addr '\001'
  else begin
    let user = r.user.(addr) in
    r.user.(addr) <- (if user = -1 || user = task then task else -2);
    if write && r.writer.(addr) < 0 then r.writer.(addr) <- task
  end

let make_current r ~proc addr = Option.iter (fun p -> Bytes.set r.current.(p) addr '\001') proc

let read r ~task ~proc ~in_cs addr (mark : Event.rmark) =
  touch r ~task ~write:false ~in_cs addr;
  match mark with Event.Time_read _ -> make_current r ~proc addr | _ -> ()

let write r ~task ~proc ~in_cs addr =
  touch r ~task ~write:true ~in_cs addr;
  r.lwe.(addr) <- r.epoch;
  Array.iter (fun c -> Bytes.set c addr '\000') r.current;
  make_current r ~proc addr

let advance r =
  r.epoch <- r.epoch + 1;
  Array.fill r.writer 0 (Array.length r.writer) (-1);
  Array.fill r.user 0 (Array.length r.user) (-1);
  Bytes.fill r.cs 0 (Bytes.length r.cs) '\000'

let snap b r =
  List.iter (Snap.ints b) [ [| r.epoch |]; r.lwe; r.writer; r.user ];
  Array.iter (fun c -> Buffer.add_bytes b c; Snap.sep b) (Array.append [| r.cs |] r.current)
