(** BASE scheme: no caching of shared data at all.

    This is the software baseline of machines like the Cray T3D without
    coherence support: every reference to shared (array) data is a remote
    memory access; only private data (scalars, which live in registers or
    local stacks and never appear in the event stream) is cached. *)

module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

type t = {
  cfg : Config.t;
  mem : Memstate.t;
  net : Kruskal_snir.t;
  traffic : Traffic.t;
  st : Scheme.stats;
  res : Scheme.access_result;
}

let name = "BASE"

let create cfg ~memory_words ~network ~traffic =
  { cfg; mem = Memstate.create ~words:memory_words; net = network; traffic;
    st = Scheme.fresh_stats (); res = Scheme.fresh_result () }

let read t ~proc:_ ~addr ~array:(_ : int) ~mark:_ =
  Traffic.add_control t.traffic Scheme.control_words;
  Traffic.add_read t.traffic 1;
  Scheme.set_result t.res
    ~latency:(Scheme.transfer_latency t.cfg t.net ~words:1)
    ~value:(Memstate.read t.mem addr)
    ~cls:Scheme.Uncached

let write t ~proc ~addr ~array:(_ : int) ~value ~mark:_ =
  Memstate.write t.mem ~proc addr value;
  Traffic.add_write t.traffic 1;
  Traffic.add_control t.traffic Scheme.control_words;
  let latency =
    match t.cfg.Config.consistency with
    | Config.Weak -> 1 (* retires through the infinite write buffer *)
    | Config.Sequential -> Scheme.transfer_latency t.cfg t.net ~words:1
  in
  Scheme.set_result t.res ~latency ~value ~cls:Scheme.Uncached

let epoch_boundary (_ : t) ~stalls = Array.fill stalls 0 (Array.length stalls) 0

let stats t = t.st

let memory_image t = t.mem.Memstate.values

(* no caches: the memory image is the whole abstract state *)
let snapshot t =
  let b = Buffer.create 64 in
  Scheme.Snap.ints b t.mem.Memstate.values;
  Buffer.contents b
