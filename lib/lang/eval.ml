(** Reference interpreter for PFL.

    This is the single execution engine of the reproduction: run with null
    hooks it is the sequential golden memory model; run with instrumented
    hooks (see [Hscd_sim.Trace]) it generates the per-processor memory-event
    streams for execution-driven simulation, as in the paper's tooling [32].
    Each run first compiles the program to OCaml closures against the run's
    address map, then executes them.

    Execution model: the program runs as an alternating sequence of epochs —
    [Serial] (the code between parallel loops, executed as one task) and
    [Parallel] (one dynamic DOALL instance, one task per iteration). Every
    epoch is delimited by [on_epoch_begin]/[on_epoch_end]; tasks by
    [on_task_begin]/[on_task_end]. DOALL iterations must be independent:
    with [check_races] enabled the interpreter verifies that no two tasks of
    an epoch conflict on a memory word outside critical sections, which is
    the correctness contract the paper's compiler relies on. *)

exception Runtime_error of string

exception Data_race of string

let runtime_errorf fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type value = int

type epoch_kind = Serial | Parallel of { lo : int; hi : int }

type hooks = {
  on_init : Shape.layout -> unit;
      (** called once, before the first epoch, with the address map the run
          uses — trace builders name array ids from it *)
  on_epoch_begin : epoch_kind -> unit;
  on_epoch_end : unit -> unit;
  on_task_begin : iter:int -> unit;
      (** [iter] is the iteration's index value; [0] for a serial task *)
  on_task_end : unit -> unit;
  on_read : array:int -> addr:int -> value:value -> mark:Ast.rmark -> unit;
      (** [array] is the array's layout-order id: its index in
          {!Shape.arrays_in_order} *)
  on_write : array:int -> addr:int -> value:value -> mark:Ast.wmark -> unit;
  on_work : int -> unit;
  on_lock : unit -> unit;
  on_unlock : unit -> unit;
}

let null_hooks =
  {
    on_init = (fun _ -> ());
    on_epoch_begin = (fun _ -> ());
    on_epoch_end = (fun () -> ());
    on_task_begin = (fun ~iter:_ -> ());
    on_task_end = (fun () -> ());
    on_read = (fun ~array:_ ~addr:_ ~value:_ ~mark:_ -> ());
    on_write = (fun ~array:_ ~addr:_ ~value:_ ~mark:_ -> ());
    on_work = (fun _ -> ());
    on_lock = (fun () -> ());
    on_unlock = (fun () -> ());
  }

(* --- deterministic blackbox functions --- *)

(* A fixed avalanche mixer: the same (name, args) always yields the same
   non-negative value, across runs and platforms. *)
let mix h v =
  let h = h lxor (v * 0x9E3779B1) in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  (h lxor (h lsr 13)) land max_int

let blackbox_seed name = String.fold_left (fun h c -> mix h (Char.code c)) 0x12345 name
let blackbox_value name args = List.fold_left mix (blackbox_seed name) args

(* --- per-epoch data-race bookkeeping --- *)

module Races = struct
  (* For each word we remember up to two distinct non-critical readers, the
     last non-critical writer, and the same for critical accesses. Two
     distinct readers are enough: any subsequent writer conflicts with at
     least one of them.

     The table is direct-mapped over the flat address space (every access
     is already bounds-checked against the layout), with a per-word epoch
     stamp instead of per-epoch clearing: a stale stamp means "no accesses
     recorded yet this epoch". This runs on every memory access, so it
     must neither hash nor allocate; task ids are iteration ranks (>= 0),
     so -1 serves as "none". *)
  type t = {
    stamp : int array;  (** last epoch that touched this word; 0 = never *)
    nc_r1 : int array;
    nc_r2 : int array;
    nc_w : int array;
    cr_r1 : int array;
    cr_r2 : int array;
    cr_w : int array;
    mutable epoch : int;  (** current epoch stamp, monotonically increasing *)
    enabled : bool;
  }

  let create enabled ~words =
    let n = if enabled then max 1 words else 1 in
    {
      stamp = Array.make n 0;
      nc_r1 = Array.make n (-1);
      nc_r2 = Array.make n (-1);
      nc_w = Array.make n (-1);
      cr_r1 = Array.make n (-1);
      cr_r2 = Array.make n (-1);
      cr_w = Array.make n (-1);
      epoch = 1;
      enabled;
    }

  let reset t = t.epoch <- t.epoch + 1

  let race array addr kind a b =
    raise
      (Data_race
         (Printf.sprintf "data race on %s (word %d): %s by tasks %d and %d in the same epoch"
            array addr kind a b))

  (* first recorded reader that isn't [task]; at most two distinct ids
     are kept, so two checks cover every case *)
  let[@inline] other_reader task r1 r2 = if r1 >= 0 && r1 <> task then r1 else if r2 >= 0 && r2 <> task then r2 else -1

  let[@inline] add_reader r1 r2 addr task =
    if r1.(addr) <> task && r2.(addr) <> task then begin
      if r1.(addr) < 0 then r1.(addr) <- task
      else if r2.(addr) < 0 then r2.(addr) <- task
    end

  let record t ~array ~addr ~task ~is_write ~in_critical =
    if t.enabled then begin
      if t.stamp.(addr) <> t.epoch then begin
        t.stamp.(addr) <- t.epoch;
        t.nc_r1.(addr) <- -1;
        t.nc_r2.(addr) <- -1;
        t.nc_w.(addr) <- -1;
        t.cr_r1.(addr) <- -1;
        t.cr_r2.(addr) <- -1;
        t.cr_w.(addr) <- -1
      end;
      if in_critical then begin
        (* critical accesses are mutually synchronized, but still conflict
           with non-critical accesses from other tasks *)
        let w = t.nc_w.(addr) in
        if w >= 0 && w <> task then
          race array addr "critical access vs. unsynchronized write" task w;
        if is_write then begin
          let r = other_reader task t.nc_r1.(addr) t.nc_r2.(addr) in
          if r >= 0 then race array addr "critical write vs. unsynchronized read" task r;
          t.cr_w.(addr) <- task
        end
        else add_reader t.cr_r1 t.cr_r2 addr task
      end
      else begin
        let w = t.cr_w.(addr) in
        if w >= 0 && w <> task then
          race array addr "unsynchronized access vs. critical write" task w;
        let w = t.nc_w.(addr) in
        if w >= 0 && w <> task then
          race array addr (if is_write then "write/write" else "read/write") task w;
        if is_write then begin
          let r = other_reader task t.nc_r1.(addr) t.nc_r2.(addr) in
          if r >= 0 then race array addr "write/read" task r;
          let r = other_reader task t.cr_r1.(addr) t.cr_r2.(addr) in
          if r >= 0 then race array addr "unsynchronized write vs. critical read" task r;
          t.nc_w.(addr) <- task
        end
        else add_reader t.nc_r1 t.nc_r2 addr task
      end
    end
end

(* --- interpreter state --- *)

type state = {
  layout : Shape.layout;
  memory : value array;
  hooks : hooks;
  races : Races.t;
  mutable task : int;  (** current task id within the epoch (= iteration rank) *)
  mutable in_parallel : bool;
  mutable in_critical : bool;
  mutable steps : int;
  max_steps : int;
  mutable epochs_executed : int;
}

let[@inline] step st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then
    runtime_errorf "execution exceeded %d steps (non-terminating program?)" st.max_steps

(* a serial epoch runs as a single task, so no cross-task race is
   possible, and the table is reset on parallel-epoch entry — recording
   only inside parallel epochs is observationally identical *)
let read st ~id ~name ~mark ~critical_mark addr =
  if st.in_parallel then
    Races.record st.races ~array:name ~addr ~task:st.task ~is_write:false
      ~in_critical:st.in_critical;
  let value = st.memory.(addr) in
  st.hooks.on_read ~array:id ~addr ~value ~mark:(if st.in_critical then critical_mark else mark);
  value

let write st ~id ~name ~mark ~critical_mark addr value =
  if st.in_parallel then
    Races.record st.races ~array:name ~addr ~task:st.task ~is_write:true
      ~in_critical:st.in_critical;
  st.memory.(addr) <- value;
  st.hooks.on_write ~array:id ~addr ~value ~mark:(if st.in_critical then critical_mark else mark)

(* --- compilation to closures ---

   Each run compiles the program, against the run's own address map, into
   OCaml closures. Names resolve at compile time: a scalar becomes a slot
   of its procedure's frame, an array its shape and layout-order id, a
   call its callee's code. So executing an expression or a statement
   hashes nothing. Every check the program can fail (an undefined scalar,
   bounds and arity, an unknown array or procedure, an argument count) is
   compiled into the code of the construct it guards, so it fires when
   that construct executes, after the same subexpressions, with the same
   text as a direct AST walk would give. *)

(* One activation's scalars: slot [k]'s value is at [2k] and its defined
   flag (0 or 1) at [2k + 1], so a task's private copy is one blit. *)
type frame = int array

(* Memoized before its body is compiled, so calls may recurse: [slots]
   and [body] are set when the body is done. *)
type proc_code = {
  params : int array;  (** slot of each parameter, in order *)
  mutable slots : int;
  mutable body : frame -> unit;
}

type ctx = {
  st : state;
  program : Ast.program;
  arrays : (string, int * Shape.t) Hashtbl.t;  (** layout-order id and shape *)
  procs : (string, proc_code) Hashtbl.t;
  slot_of : (string, int) Hashtbl.t;  (** the current procedure's scalars *)
}

(* the slot of scalar [v] in the procedure being compiled *)
let slot cx v =
  match Hashtbl.find_opt cx.slot_of v with
  | Some k -> k
  | None ->
    let k = Hashtbl.length cx.slot_of in
    Hashtbl.replace cx.slot_of v k;
    k

(* Can executing [s] mutate the enclosing scalar frame? A CALL runs in a
   fresh callee frame and a nested DO restores its own index, so only a
   reachable ASSIGN counts. Decides whether DOALL tasks need private
   frame copies. *)
let rec stmt_assigns_scalar (s : Ast.stmt) =
  match s with
  | Assign _ -> true
  | Store _ | Work _ | Call _ -> false
  | If (_, t, e) -> List.exists stmt_assigns_scalar t || List.exists stmt_assigns_scalar e
  | Critical body | Do { body; _ } -> List.exists stmt_assigns_scalar body
  | Doall _ -> true

(* Addressing checks bounds inline and calls into [Shape] only to raise,
   so errors keep [Shape]'s text. With the wrong number of subscripts the
   extents are 0, every index fails, and [Shape] reports the arity. *)
let shape_error f = try f () with Invalid_argument m -> raise (Runtime_error m)

let dims1 (t : Shape.t) = match t.dims with [ d ] -> d | _ -> 0
let dims2 (t : Shape.t) = match t.dims with [ d1; d2 ] -> (d1, d2) | _ -> (0, 0)

let[@inline] address1 (t : Shape.t) d i =
  if i < 0 || i >= d then shape_error (fun () -> Shape.address1 t i) else t.base + i

let[@inline] address2 (t : Shape.t) d1 d2 i j =
  if i < 0 || i >= d1 || j < 0 || j >= d2 then shape_error (fun () -> Shape.address2 t i j)
  else t.base + (i * d2) + j

let address (t : Shape.t) indices = t.base + shape_error (fun () -> Shape.flatten t indices)

let eval_all subs f = List.map (fun s -> s f) subs

let rec mix_args h f = function [] -> h | a :: rest -> mix_args (mix h (a f)) f rest

let rec compile_expr cx (e : Ast.expr) : frame -> int =
  match e with
  | Int n -> fun _ -> n
  | Var v ->
    let k = 2 * slot cx v in
    fun f -> if f.(k + 1) = 0 then runtime_errorf "scalar %s used before definition" v else f.(k)
  | Neg e ->
    let e = compile_expr cx e in
    fun f -> -e f
  | Binop (op, l, r) -> compile_binop op (compile_expr cx l) (compile_expr cx r)
  | Blackbox (name, args) ->
    let h0 = blackbox_seed name and args = List.map (compile_expr cx) args in
    fun f -> mix_args h0 f args
  | Aref (a, idx, mark) -> (
    let st = cx.st in
    let critical_mark = match mark with Ast.Unmarked -> Ast.Bypass_read | m -> m in
    let subs = List.map (compile_expr cx) idx in
    match (Hashtbl.find_opt cx.arrays a, subs) with
    | None, _ ->
      fun f ->
        let indices = eval_all subs f in
        shape_error (fun () -> Shape.address st.layout a indices)
    | Some (id, t), [ si ] ->
      let d = dims1 t and name = t.name in
      fun f -> read st ~id ~name ~mark ~critical_mark (address1 t d (si f))
    | Some (id, t), [ si; sj ] ->
      let d1, d2 = dims2 t and name = t.name in
      fun f ->
        let i = si f in
        read st ~id ~name ~mark ~critical_mark (address2 t d1 d2 i (sj f))
    | Some (id, t), _ ->
      let name = t.name in
      fun f -> read st ~id ~name ~mark ~critical_mark (address t (eval_all subs f)))

(* operands evaluate left to right; both before any check *)
and compile_binop (op : Ast.binop) l r : frame -> int =
  match op with
  | Add -> fun f -> let a = l f in a + r f
  | Sub -> fun f -> let a = l f in a - r f
  | Mul -> fun f -> let a = l f in a * r f
  | Div ->
    fun f ->
      let a = l f in
      let b = r f in
      if b = 0 then runtime_errorf "division by zero" else a / b
  | Mod ->
    fun f ->
      let a = l f in
      let b = r f in
      if b = 0 then runtime_errorf "mod by zero"
      else
        (* mathematical (non-negative) remainder so subscripts stay valid *)
        let m = a mod b in
        if m < 0 then m + abs b else m
  | Min -> fun f -> let a = l f in let b = r f in if a <= b then a else b
  | Max -> fun f -> let a = l f in let b = r f in if a >= b then a else b

let rec compile_cond cx (c : Ast.cond) : frame -> bool =
  match c with
  | Cmp (op, l, r) -> (
    let l = compile_expr cx l and r = compile_expr cx r in
    match op with
    | Eq -> fun f -> let a = l f in a = r f
    | Ne -> fun f -> let a = l f in a <> r f
    | Lt -> fun f -> let a = l f in a < r f
    | Le -> fun f -> let a = l f in a <= r f
    | Gt -> fun f -> let a = l f in a > r f
    | Ge -> fun f -> let a = l f in a >= r f)
  | And (a, b) ->
    let a = compile_cond cx a and b = compile_cond cx b in
    fun f -> a f && b f
  | Or (a, b) ->
    let a = compile_cond cx a and b = compile_cond cx b in
    fun f -> a f || b f
  | Not c ->
    let c = compile_cond cx c in
    fun f -> not (c f)

(* the code of procedure [p], compiled on first reference *)
let rec proc_code cx (p : Ast.proc) =
  match Hashtbl.find_opt cx.procs p.proc_name with
  | Some code -> code
  | None ->
    let cx = { cx with slot_of = Hashtbl.create 16 } in
    let code = { params = Array.of_list (List.map (slot cx) p.params); slots = 0; body = (fun _ -> ()) } in
    Hashtbl.replace cx.procs p.proc_name code;
    code.body <- compile_stmts cx p.body;
    code.slots <- Hashtbl.length cx.slot_of;
    code

and compile_stmts cx stmts : frame -> unit =
  let rec chain = function
    | [] -> fun _ -> ()
    | [ s ] -> s
    | s :: rest ->
      let rest = chain rest in
      fun f ->
        s f;
        rest f
  in
  chain (List.map (compile_stmt cx) stmts)

(* Every statement counts one step before it does anything else. *)
and compile_stmt cx (s : Ast.stmt) : frame -> unit =
  let st = cx.st in
  match s with
  | Assign (v, e) ->
    let e = compile_expr cx e and k = 2 * slot cx v in
    fun f ->
      step st;
      f.(k) <- e f;
      f.(k + 1) <- 1
  | Store (a, idx, e, mark) -> (
    let critical_mark = match mark with Ast.Normal_write -> Ast.Bypass_write | m -> m in
    let subs = List.map (compile_expr cx) idx and e = compile_expr cx e in
    (* subscripts evaluate before the stored value, and the address check
       happens after both *)
    match (Hashtbl.find_opt cx.arrays a, subs) with
    | None, _ ->
      fun f ->
        step st;
        let indices = eval_all subs f in
        ignore (e f);
        ignore (shape_error (fun () -> Shape.address st.layout a indices))
    | Some (id, t), [ si ] ->
      let d = dims1 t and name = t.name in
      fun f ->
        step st;
        let i = si f in
        let value = e f in
        write st ~id ~name ~mark ~critical_mark (address1 t d i) value
    | Some (id, t), [ si; sj ] ->
      let d1, d2 = dims2 t and name = t.name in
      fun f ->
        step st;
        let i = si f in
        let j = sj f in
        let value = e f in
        write st ~id ~name ~mark ~critical_mark (address2 t d1 d2 i j) value
    | Some (id, t), _ ->
      let name = t.name in
      fun f ->
        step st;
        let indices = eval_all subs f in
        let value = e f in
        write st ~id ~name ~mark ~critical_mark (address t indices) value)
  | Work e ->
    let e = compile_expr cx e in
    fun f ->
      step st;
      let n = e f in
      if n < 0 then runtime_errorf "work with negative cycle count %d" n;
      st.hooks.on_work n
  | If (c, t, e) ->
    let c = compile_cond cx c and t = compile_stmts cx t and e = compile_stmts cx e in
    fun f ->
      step st;
      if c f then t f else e f
  | Critical body ->
    let body = compile_stmts cx body in
    fun f ->
      step st;
      if st.in_critical then runtime_errorf "nested critical sections are not allowed";
      st.hooks.on_lock ();
      st.in_critical <- true;
      (try body f
       with exn ->
         st.in_critical <- false;
         raise exn);
      st.in_critical <- false;
      st.hooks.on_unlock ()
  | Call (name, args) -> (
    let args = List.map (compile_expr cx) args in
    match Ast.find_proc cx.program name with
    | None ->
      fun _ ->
        step st;
        runtime_errorf "call to undefined procedure %s" name
    | Some p ->
      let callee = proc_code cx p in
      let n_params = Array.length callee.params and n_args = List.length args in
      if n_args <> n_params then fun f ->
        step st;
        ignore (eval_all args f);
        runtime_errorf "%s expects %d arguments, got %d" name n_params n_args
      else
        let args = Array.of_list args in
        fun f ->
          step st;
          let g = Array.make (2 * callee.slots) 0 in
          for p = 0 to n_params - 1 do
            let k = 2 * callee.params.(p) in
            g.(k) <- args.(p) f;
            g.(k + 1) <- 1
          done;
          callee.body g)
  | Do { index; lo; hi; body } ->
    let lo = compile_expr cx lo and hi = compile_expr cx hi and body = compile_stmts cx body in
    let k = 2 * slot cx index in
    fun f ->
      step st;
      let lo = lo f in
      let hi = hi f in
      let saved = f.(k) and saved_defined = f.(k + 1) in
      for i = lo to hi do
        f.(k) <- i;
        f.(k + 1) <- 1;
        body f
      done;
      f.(k) <- saved;
      f.(k + 1) <- saved_defined
  | Doall { index; lo; hi; body } ->
    (* task-private scalars: each iteration starts from the enclosing
       frame and its updates are discarded. When the body provably never
       assigns a scalar the copy is unobservable (a nested DO restores its
       own index), so every task runs in the enclosing frame with only the
       loop index swapped in. *)
    let shares_frame = not (List.exists stmt_assigns_scalar body) in
    let lo = compile_expr cx lo and hi = compile_expr cx hi and body = compile_stmts cx body in
    let k = 2 * slot cx index in
    fun f ->
      step st;
      if st.in_parallel then runtime_errorf "nested doall survived normalization";
      let lo = lo f in
      let hi = hi f in
      (* close the current serial epoch, run the parallel one, reopen serial *)
      st.hooks.on_task_end ();
      st.hooks.on_epoch_end ();
      st.epochs_executed <- st.epochs_executed + 1;
      st.hooks.on_epoch_begin (Parallel { lo; hi });
      Races.reset st.races;
      st.in_parallel <- true;
      let saved = if shares_frame then Array.sub f k 2 else Array.copy f in
      let restore () = if shares_frame then Array.blit saved 0 f k 2 else Array.blit saved 0 f 0 (Array.length f) in
      for i = lo to hi do
        st.task <- i - lo;
        st.hooks.on_task_begin ~iter:i;
        if not shares_frame then restore ();
        f.(k) <- i;
        f.(k + 1) <- 1;
        body f;
        st.hooks.on_task_end ()
      done;
      restore ();
      st.in_parallel <- false;
      st.task <- 0;
      st.hooks.on_epoch_end ();
      st.epochs_executed <- st.epochs_executed + 1;
      st.hooks.on_epoch_begin Serial;
      Races.reset st.races;
      st.hooks.on_task_begin ~iter:0

(* --- entry point --- *)

type result = {
  final_memory : value array;
  layout : Shape.layout;
  epochs : int;  (** number of epochs executed (counting the serial ones) *)
}

(** Execute [program] (assumed sema-checked). [line_words] controls array
    padding in the address map and must match the simulated machine. *)
let run ?(hooks = null_hooks) ?(check_races = true) ?(max_steps = 50_000_000)
    ?(line_words = 4) (program : Ast.program) =
  let layout = Shape.layout ~line_words program.arrays in
  let st =
    {
      layout;
      memory = Array.make (max 1 layout.total_words) 0;
      hooks;
      races = Races.create check_races ~words:layout.total_words;
      task = 0;
      in_parallel = false;
      in_critical = false;
      steps = 0;
      max_steps;
      epochs_executed = 0;
    }
  in
  let entry =
    match Ast.find_proc program program.entry with
    | Some p -> p
    | None -> runtime_errorf "entry procedure %s not found" program.entry
  in
  let arrays = Hashtbl.create 16 in
  List.iteri (fun id (t : Shape.t) -> Hashtbl.replace arrays t.name (id, t)) (Shape.arrays_in_order layout);
  let code =
    proc_code
      { st; program; arrays; procs = Hashtbl.create 8; slot_of = Hashtbl.create 1 }
      entry
  in
  hooks.on_init layout;
  hooks.on_epoch_begin Serial;
  hooks.on_task_begin ~iter:0;
  code.body (Array.make (2 * code.slots) 0);
  hooks.on_task_end ();
  hooks.on_epoch_end ();
  st.epochs_executed <- st.epochs_executed + 1;
  { final_memory = st.memory; layout; epochs = st.epochs_executed }

(** Read an element of the final memory, for tests and examples. *)
let peek result name indices = result.final_memory.(Shape.address result.layout name indices)
