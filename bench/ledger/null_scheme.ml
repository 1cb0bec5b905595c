(** A coherence scheme that does no coherence work: reads and writes go
    to a flat memory image at constant hit latency. Replaying a trace
    against it costs only the engine's own work — scheduling, event
    decode and the per-load golden check — so a real scheme's replay time
    minus this one's is that scheme's access cost. *)

module Scheme = Hscd_coherence.Scheme
module Config = Hscd_arch.Config

type t = {
  mem : int array;
  hit : int;
  st : Scheme.stats;
  res : Scheme.access_result;
}

let name = "NULL"

let create (cfg : Config.t) ~memory_words ~network:_ ~traffic:_ =
  {
    mem = Array.make memory_words 0;
    hit = cfg.Config.hit_cycles;
    st = Scheme.fresh_stats ();
    res = Scheme.fresh_result ();
  }

let read t ~proc:_ ~addr ~array:(_ : int) ~mark:_ =
  Scheme.set_result t.res ~latency:t.hit ~value:t.mem.(addr) ~cls:Scheme.Hit

let write t ~proc:_ ~addr ~array:(_ : int) ~value ~mark:_ =
  t.mem.(addr) <- value;
  Scheme.set_result t.res ~latency:t.hit ~value ~cls:Scheme.Hit

let epoch_boundary (_ : t) ~stalls = Array.fill stalls 0 (Array.length stalls) 0
let boundary_exchange (_ : t array) = ()
let stats t = t.st
let memory_image t = t.mem
let snapshot (_ : t) = ""

