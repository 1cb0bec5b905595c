let default_jobs () =
  match Sys.getenv_opt "HSCD_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

module For_testing = struct
  let fail_next_spawns = Atomic.make 0
end

let try_spawn fn =
  if Atomic.get For_testing.fail_next_spawns > 0 then begin
    ignore (Atomic.fetch_and_add For_testing.fail_next_spawns (-1));
    None
  end
  else match Domain.spawn fn with d -> Some d | exception _ -> None

let error_of_task_exn e bt =
  let t = Hscd_error.of_exn ~default:Hscd_error.Worker e in
  { t with Hscd_error.backtrace = Some (Printexc.raw_backtrace_to_string bt) }

(* ------------------------------------------------------------------ *)
(* The supervised pool: the one executor behind every sweep.           *)
(*                                                                     *)
(* Workers take task indices from a shared queue and report raw        *)
(* completions; every policy decision — retry scheduling, backoff,     *)
(* deadlines, cancellation, respawn, degradation — is made by the      *)
(* supervisor (the calling domain). Centralizing policy in one domain  *)
(* keeps the workers dumb and the state transitions race-free: only    *)
(* the supervisor ever touches the outcome slots.                      *)
(*                                                                     *)
(* The caller runs in one of two modes, chosen by [policy.deadline]:   *)
(*                                                                     *)
(* - No deadline: the caller works the queue beside [jobs - 1] spawned *)
(*   workers, so [jobs] domains compute. Between its own tasks it      *)
(*   resolves completions; with nothing left to take it blocks on a    *)
(*   condition variable until a worker reports, or sleeps until a      *)
(*   retry's backoff expires.                                          *)
(* - Deadline: the caller only supervises, polling a few hundred times *)
(*   a second beside [jobs] workers, because it must stay free to      *)
(*   notice a hung attempt. An attempt that blows its deadline marks   *)
(*   its worker as lost: domains cannot be killed, so the hung domain  *)
(*   is abandoned (never joined) and a replacement is spawned, up to   *)
(*   [max_respawns]. If a lost worker was merely slow and eventually   *)
(*   finishes, it rejoins the pool as a bonus worker and its late      *)
(*   result is discarded if the task was already resolved elsewhere —  *)
(*   harmless when [f] is pure.                                        *)
(*                                                                     *)
(* When no live workers remain (or no domain can be spawned at all),   *)
(* the supervisor finishes the remaining tasks itself, sequentially.   *)
(* ------------------------------------------------------------------ *)

type 'b outcome = Done of 'b | Failed of Hscd_error.t | Timed_out of float

type policy = {
  deadline : float option;
  retries : int;
  backoff : float;
  keep_going : bool;
  max_respawns : int;
}

let default_policy =
  { deadline = None; retries = 2; backoff = 0.05; keep_going = true; max_respawns = 4 }

type stats = { retried : int; timeouts : int; respawns : int; degraded : bool }

let task_context i = Printf.sprintf "task %d" i

let supervise ?(jobs = 1) ?(policy = default_policy) ?(on_done = fun _ _ -> ()) f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let out = Array.make n (Failed (Hscd_error.make Hscd_error.Internal "unresolved task slot")) in
  let resolved = Array.make n false in
  let attempts = Array.make n 0 in
  let n_resolved = ref 0 in
  let cancelled = ref false in
  let retried = ref 0 and timeouts = ref 0 and respawns = ref 0 and degraded = ref false in
  let stats () =
    { retried = !retried; timeouts = !timeouts; respawns = !respawns; degraded = !degraded }
  in
  let cancel_error i =
    Hscd_error.make ~context:[ task_context i ] Hscd_error.Worker
      "cancelled (fail-fast policy after a sibling's failure)"
  in
  let task_error i e bt = Hscd_error.add_context (task_context i) (error_of_task_exn e bt) in
  (* In-caller completion of every unresolved task, input order. Used for
     jobs<=1 and as the degradation target; deadlines cannot be enforced
     here (there is nothing to interrupt a task with), retries can. *)
  let seq_complete () =
    for i = 0 to n - 1 do
      if not resolved.(i) then begin
        let oc =
          if !cancelled then Failed (cancel_error i)
          else begin
            let rec attempt () =
              attempts.(i) <- attempts.(i) + 1;
              match f input.(i) with
              | v -> Done v
              | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                if attempts.(i) < 1 + policy.retries then begin
                  incr retried;
                  if policy.backoff > 0. then
                    Unix.sleepf (policy.backoff *. float_of_int attempts.(i));
                  attempt ()
                end
                else Failed (task_error i e bt)
            in
            attempt ()
          end
        in
        out.(i) <- oc;
        resolved.(i) <- true;
        incr n_resolved;
        (match oc with Failed _ when not policy.keep_going -> cancelled := true | _ -> ());
        on_done i oc
      end
    done
  in
  (* without a deadline the caller is one of the [jobs] computing domains *)
  let caller_works = Option.is_none policy.deadline in
  if n = 0 then ([], stats ())
  else if jobs <= 1 || (caller_works && n = 1) then begin
    seq_complete ();
    (Array.to_list out, stats ())
  end
  else begin
    let m = Mutex.create () in
    let work_cv = Condition.create () in
    let done_cv = Condition.create () in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i queue
    done;
    let completions : (int * ('b, exn * Printexc.raw_backtrace) result) Queue.t =
      Queue.create ()
    in
    let retry_later = ref [] in
    let stop = ref false in
    let n_workers = if caller_works then min jobs n - 1 else min jobs n in
    let cap = n_workers + policy.max_respawns in
    let running = Array.make cap None in
    let lost = Array.make cap false in
    let domains = Array.make cap None in
    let worker w () =
      let continue = ref true in
      while !continue do
        Mutex.lock m;
        while Queue.is_empty queue && not !stop do
          Condition.wait work_cv m
        done;
        if !stop && Queue.is_empty queue then begin
          Mutex.unlock m;
          continue := false
        end
        else begin
          let i = Queue.pop queue in
          attempts.(i) <- attempts.(i) + 1;
          running.(w) <- Some (i, Unix.gettimeofday ());
          Mutex.unlock m;
          let r =
            match f input.(i) with
            | v -> Ok v
            | exception e -> Result.Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock m;
          running.(w) <- None;
          Queue.add (i, r) completions;
          Condition.signal done_cv;
          Mutex.unlock m
        end
      done
    in
    let live = ref 0 in
    let next_slot = ref 0 in
    for _ = 1 to n_workers do
      let w = !next_slot in
      match try_spawn (worker w) with
      | Some d ->
        incr next_slot;
        domains.(w) <- Some d;
        incr live
      | None -> ()
    done;
    if !live = 0 then begin
      (* domain spawn is broken: run the whole batch in the caller *)
      degraded := true;
      seq_complete ();
      (Array.to_list out, stats ())
    end
    else begin
      (* on_done fires outside the lock (it does journal I/O) *)
      let pending_done = ref [] in
      let rec resolve i oc =
        out.(i) <- oc;
        resolved.(i) <- true;
        incr n_resolved;
        pending_done := (i, oc) :: !pending_done;
        match oc with
        | (Failed _ | Timed_out _) when (not policy.keep_going) && not !cancelled ->
          cancelled := true;
          (* unstarted siblings resolve immediately; running ones finish *)
          let cancel j = if not resolved.(j) then resolve j (Failed (cancel_error j)) in
          Queue.iter cancel queue;
          Queue.clear queue;
          List.iter (fun (_, j) -> cancel j) !retry_later;
          retry_later := []
        | _ -> ()
      in
      let schedule_retry now i =
        incr retried;
        retry_later := (now +. (policy.backoff *. float_of_int attempts.(i)), i) :: !retry_later
      in
      while !n_resolved < n do
        Mutex.lock m;
        let now = Unix.gettimeofday () in
        (* completions: resolve, or schedule a retry for crashed attempts *)
        while not (Queue.is_empty completions) do
          let i, r = Queue.pop completions in
          if not resolved.(i) then
            match r with
            | Ok v -> resolve i (Done v)
            | Result.Error (e, bt) ->
              if (not !cancelled) && attempts.(i) < 1 + policy.retries then schedule_retry now i
              else resolve i (Failed (task_error i e bt))
        done;
        (* due retries re-enter the work queue *)
        let due, later = List.partition (fun (t, _) -> t <= now) !retry_later in
        retry_later := later;
        List.iter
          (fun (_, i) ->
            if not resolved.(i) then begin
              Queue.add i queue;
              Condition.signal work_cv
            end)
          due;
        (* deadlines: a blown attempt loses its worker (domains cannot be
           interrupted); the task retries or resolves as Timed_out *)
        (match policy.deadline with
        | None -> ()
        | Some dl ->
          for w = 0 to !next_slot - 1 do
            if not lost.(w) then
              match running.(w) with
              | Some (i, t0) when now -. t0 > dl ->
                incr timeouts;
                lost.(w) <- true;
                decr live;
                if not resolved.(i) then begin
                  if (not !cancelled) && attempts.(i) < 1 + policy.retries then
                    schedule_retry now i
                  else resolve i (Timed_out (now -. t0))
                end;
                if !next_slot < cap && !respawns < policy.max_respawns then begin
                  let w' = !next_slot in
                  match try_spawn (worker w') with
                  | Some d ->
                    incr next_slot;
                    domains.(w') <- Some d;
                    incr respawns;
                    incr live
                  | None -> ()
                end
              | _ -> ()
          done);
        let all_done = !n_resolved >= n in
        let stalled = (not all_done) && !live <= 0 in
        if all_done || stalled then begin
          stop := true;
          if stalled then Queue.clear queue;
          Condition.broadcast work_cv
        end;
        (* the caller's own next step, claimed under the lock *)
        let next =
          if all_done || stalled || not caller_works then `Poll
          else if not (Queue.is_empty queue) then begin
            let i = Queue.pop queue in
            attempts.(i) <- attempts.(i) + 1;
            `Run i
          end
          else
            match !retry_later with
            | [] -> `Await
            | l -> `Backoff (List.fold_left (fun a (t, _) -> Float.min a t) infinity l -. now)
        in
        Mutex.unlock m;
        List.iter (fun (i, oc) -> on_done i oc) (List.rev !pending_done);
        pending_done := [];
        if stalled then begin
          (* every worker is lost or failed to spawn: finish in the caller *)
          degraded := true;
          seq_complete ()
        end
        else
          match next with
          | `Poll -> if not all_done then Unix.sleepf 0.002
          | `Run i ->
            let r =
              match f input.(i) with
              | v -> Ok v
              | exception e -> Result.Error (e, Printexc.get_raw_backtrace ())
            in
            Mutex.protect m (fun () -> Queue.add (i, r) completions)
          | `Backoff d -> Unix.sleepf d
          | `Await ->
            (* every unresolved task is running on a worker *)
            Mutex.lock m;
            while Queue.is_empty completions do
              Condition.wait done_cv m
            done;
            Mutex.unlock m
      done;
      Mutex.lock m;
      stop := true;
      Condition.broadcast work_cv;
      Mutex.unlock m;
      (* join live workers; lost (possibly hung) domains are abandoned *)
      for w = 0 to !next_slot - 1 do
        match domains.(w) with Some d when not lost.(w) -> Domain.join d | _ -> ()
      done;
      (Array.to_list out, stats ())
    end
  end
