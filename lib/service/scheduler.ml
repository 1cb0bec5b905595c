type config = { weight : int; capacity : int }

let default_config = { weight = 1; capacity = 64 }

(* Stride scale: lcm(1..16), so every weight up to 16 divides it exactly
   and common weight ratios produce exact interleavings; larger weights
   still work, with rounding error below one service slot. *)
let scale = 720720

type 'a tenant = {
  name : string;
  mutable weight : int;
  mutable capacity : int;
  mutable stride : int;
  queue : 'a Queue.t;  (* stage 2: FCFS *)
  mutable pass : int;  (* stage 1: stride virtual time *)
}

type 'a t = {
  strict : bool;
  table : (string, 'a tenant) Hashtbl.t;
  mutable order : 'a tenant list;  (* registration order: deterministic ties *)
  mutable vtime : int;  (* pass of the most recently served tenant *)
  mutable queued : int;
}

let create ?(strict = false) () =
  { strict; table = Hashtbl.create 16; order = []; vtime = 0; queued = 0 }

let register t name (cfg : config) =
  if cfg.weight < 1 || cfg.capacity < 1 then
    invalid_arg "Scheduler.add_tenant: weight/capacity must be >= 1";
  match Hashtbl.find_opt t.table name with
  | Some tn ->
    tn.weight <- cfg.weight;
    tn.capacity <- cfg.capacity;
    tn.stride <- scale / cfg.weight;
    tn
  | None ->
    let tn =
      {
        name;
        weight = cfg.weight;
        capacity = cfg.capacity;
        stride = scale / cfg.weight;
        queue = Queue.create ();
        (* joins at the current virtual time: no banked credit from the
           epoch before it existed *)
        pass = t.vtime;
      }
    in
    Hashtbl.replace t.table name tn;
    t.order <- t.order @ [ tn ];
    tn

let add_tenant t ~name cfg = ignore (register t name cfg)

type admission = [ `Queued of int | `Busy of string | `Rejected of string ]

let enqueue t tn job =
  (* becoming active again: re-enter at the current virtual time, else a
     long-idle tenant's stale (small) pass would let it monopolize the
     scheduler until its lag is burned off *)
  if Queue.is_empty tn.queue && tn.pass < t.vtime then tn.pass <- t.vtime;
  Queue.push job tn.queue;
  t.queued <- t.queued + 1

let submit t ~tenant job : admission =
  match Hashtbl.find_opt t.table tenant with
  | None when t.strict -> `Rejected (Printf.sprintf "unknown tenant %S" tenant)
  | (None | Some _) as existing ->
    let tn = match existing with Some tn -> tn | None -> register t tenant default_config in
    let depth = Queue.length tn.queue in
    if depth >= tn.capacity then
      `Busy
        (Printf.sprintf "tenant %S queue full (%d/%d queued)" tenant depth tn.capacity)
    else begin
      enqueue t tn job;
      `Queued depth
    end

let force t ~tenant job =
  let tn =
    match Hashtbl.find_opt t.table tenant with
    | Some tn -> tn
    | None -> register t tenant default_config
  in
  enqueue t tn job

let next t =
  if t.queued = 0 then None
  else begin
    (* stage 1: least pass among nonempty tenants, registration order
       breaking ties — deterministic for replayable tests *)
    let best =
      List.fold_left
        (fun best tn ->
          if Queue.is_empty tn.queue then best
          else
            match best with
            | Some b when b.pass <= tn.pass -> best
            | _ -> Some tn)
        None t.order
    in
    match best with
    | None -> None (* unreachable: queued > 0 *)
    | Some tn ->
      (* stage 2: FCFS within the tenant *)
      let job = Queue.pop tn.queue in
      t.queued <- t.queued - 1;
      t.vtime <- tn.pass;
      tn.pass <- tn.pass + tn.stride;
      Some (tn.name, job)
  end

let pending t = t.queued

let tenant_pending t name =
  match Hashtbl.find_opt t.table name with None -> 0 | Some tn -> Queue.length tn.queue

let tenants t = List.map (fun tn -> tn.name) t.order
