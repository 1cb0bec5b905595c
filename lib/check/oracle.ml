(** The differential oracle: run one trace through several coherence
    schemes and require every correctness signal to be clean —

    - the engine's per-load check against the golden interpreter (zero
      violations),
    - the end-of-run memory comparison against golden ([memory_ok]),
    - the per-step invariant monitors of {!Monitor},
    - exactly one epoch boundary per trace epoch, and
    - identical final memory images across all schemes (the differential
      signal proper: write-through and write-back machines must converge
      to the same memory).

    A fault can be injected into one scheme ({!Fault}) to validate that
    the oracle catches it. *)

module Config = Hscd_arch.Config
module Scheme = Hscd_coherence.Scheme
module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Trace = Hscd_sim.Trace
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic
module Pool = Hscd_util.Pool

type scheme_report = {
  kind : Run.scheme_kind;
  result : Engine.result;
  monitor : Monitor.violation list;
  boundaries_ok : bool;
}

type t = {
  reports : scheme_report list;
  memories_agree : bool;  (** all schemes produced identical final memory *)
}

let report_ok r =
  r.result.Engine.violations = [] && r.result.Engine.memory_ok && r.monitor = []
  && r.boundaries_ok

let ok t = t.memories_agree && List.for_all report_ok t.reports

(** Scheme kinds whose report is dirty. *)
let failing_schemes t =
  List.filter_map (fun r -> if report_ok r then None else Some r.kind) t.reports

let run ?(schemes = Run.all_schemes) ?fault ?jobs (cfg : Config.t) (trace : Trace.packed) =
  let cfg = Config.validate cfg in
  let words = Trace.packed_memory_words trace in
  let n_epochs = Trace.packed_n_epochs trace in
  let outcomes, _ =
    (* one domain per scheme: every run builds its own network, traffic,
       scheme state and monitor, so the fan-out is bit-deterministic *)
    Pool.supervise ?jobs
      ~policy:{ Pool.default_policy with retries = 0 }
      (fun kind ->
        let network = Kruskal_snir.create cfg in
        let traffic = Traffic.create cfg in
        let inner = Run.pack kind cfg ~memory_words:words ~network ~traffic in
        let subject =
          match fault with
          | Some (fkind, f) when fkind = kind -> Fault.wrap f ~processors:cfg.processors inner
          | _ -> inner
        in
        let m = Monitor.create ~processors:cfg.processors ~words in
        (* the slabs are immutable and shared read-only by the domains *)
        let result = Engine.run cfg (Monitor.wrap m subject) ~net:network ~traffic trace in
        let final =
          match subject with Scheme.Packed ((module S), s) -> Array.copy (S.memory_image s)
        in
        ( {
            kind;
            result;
            monitor = Monitor.report m;
            boundaries_ok = Monitor.boundaries m = n_epochs;
          },
          final ))
      schemes
  in
  let runs =
    List.map
      (function
        | Pool.Done r -> r
        | Pool.Failed e -> raise (Hscd_util.Hscd_error.Error e)
        | Pool.Timed_out _ -> assert false (* no deadline *))
      outcomes
  in
  let memories_agree =
    match List.map snd runs with [] -> true | m0 :: rest -> List.for_all (( = ) m0) rest
  in
  { reports = List.map fst runs; memories_agree }

let describe t =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-5s %s: %d engine violations, memory %s, %d monitor hits%s\n"
           (Run.scheme_name r.kind)
           (if report_ok r then "ok " else "FAIL")
           (List.length r.result.Engine.violations)
           (if r.result.Engine.memory_ok then "ok" else "CORRUPT")
           (List.length r.monitor)
           (if r.boundaries_ok then "" else ", bad boundary count"));
      List.iter
        (fun (v : Engine.violation) ->
          Buffer.add_string b
            (Printf.sprintf "        load epoch %d proc %d addr %d: expected %d, got %d\n"
               v.Engine.epoch v.Engine.proc v.Engine.addr v.Engine.expected v.Engine.got))
        r.result.Engine.violations;
      List.iter
        (fun v -> Buffer.add_string b ("        " ^ Monitor.violation_to_string v ^ "\n"))
        r.monitor)
    t.reports;
  if not t.memories_agree then
    Buffer.add_string b "  cross-scheme final memory images DISAGREE\n";
  Buffer.contents b
