(** Two-stage fair scheduler with admission control: stage 1 picks a
    tenant by weighted round-robin, stage 2 picks within the tenant FCFS.

    Tenants contend for the simulation domains the way processors contend
    for a shared bus, and the service-discipline studies say the
    discipline decides tail latency: plain FCFS across tenants lets one
    heavy tenant starve everyone, so stage 1 is a {e smooth} weighted
    round-robin (stride scheduling — the credit/virtual-time form of the
    WRR that NIC virtualization uses to share one link across hundreds of
    queues). Each tenant carries a virtual-time [pass]; the nonempty
    tenant with the least pass is served and its pass advances by
    [scale / weight], so over any backlogged window tenants are served in
    weight proportion (±1 for a pair), and a tenant that goes idle and
    returns re-enters at the current virtual time — it can neither be
    starved nor monopolize with banked credit.

    Admission is bounded everywhere: each tenant queue has a capacity and
    a full queue answers [`Busy] (backpressure, retryable), while an
    unknown tenant under [strict] answers [`Rejected] (policy, final).
    The scheduler never buffers beyond the declared bounds. *)

type config = {
  weight : int;  (** service share; >= 1 *)
  capacity : int;  (** max queued jobs before [`Busy]; >= 1 *)
}

val default_config : config

type 'a t

(** [create ~strict ()] — under [strict] (default false), only tenants
    declared via {!add_tenant} may submit; otherwise an unknown tenant is
    auto-registered with {!default_config} on first submit. *)
val create : ?strict:bool -> unit -> 'a t

(** Declare (or re-weight) a tenant. Raises [Invalid_argument] on a
    weight or capacity < 1. *)
val add_tenant : 'a t -> name:string -> config -> unit

type admission =
  [ `Queued of int  (** admitted; jobs ahead of it in the tenant queue *)
  | `Busy of string  (** bounded queue full — retry later *)
  | `Rejected of string  (** unknown tenant under [strict] *) ]

val submit : 'a t -> tenant:string -> 'a -> admission

(** Recovery path: enqueue bypassing capacity (a journaled job accepted
    before a crash must not be dropped by its own backlog). Auto-registers
    the tenant when unknown, even under [strict] — it was admitted once. *)
val force : 'a t -> tenant:string -> 'a -> unit

(** Stage 1 (weighted round-robin over nonempty tenants) then stage 2
    (FCFS within the winner). [None] iff nothing is queued — the
    scheduler is work-conserving. *)
val next : 'a t -> (string * 'a) option

val pending : 'a t -> int
val tenant_pending : 'a t -> string -> int
val tenants : 'a t -> string list
