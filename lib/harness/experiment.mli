open Repro_sim
open Repro_storage
open Repro_core

(** The load loop and the paper's §7 measurement built on it.

    A loop drives a caller's [issue i ~k] function: [issue] sends request
    [i] and calls [k true] once it is answered or [k false] once it is
    dropped.  Two arrival models:
    - {b closed}: clients [0 .. clients-1], each issuing its next request
      as soon as the previous one is answered or dropped (the paper's §7
      client);
    - {b Poisson}: arrivals [1, 2, ...] at a target rate, regardless of
      completions — exposes saturation the closed loop hides.

    Each loop has one measurement window: the answered requests since
    {!measure} and their issue-to-answer latencies. *)

type loop

val closed :
  Repro_sim.Engine.t ->
  clients:int ->
  issue:(int -> k:(bool -> unit) -> unit) ->
  loop

val poisson :
  Repro_sim.Engine.t ->
  rng:Rng.t ->
  rate_per_sec:float ->
  issue:(int -> k:(bool -> unit) -> unit) ->
  loop
(** Gaps are drawn from [rng], interleaved with whatever [issue] draws
    from it. *)

val measure : loop -> unit
(** Opens the window now; answers before it are not counted. *)

val stop : loop -> unit
(** Issues nothing more; outstanding requests still complete. *)

val completed : loop -> int
val latencies_ms : loop -> Stats.Summary.t

val throughput : loop -> float
(** Window completions per second, from {!measure} to now. *)

val goodput : loop -> within:Time.t -> float
(** As {!throughput}, counting only latencies within the deadline. *)

(** The read choice of {!request}. *)
type reads =
  | No_reads  (** strict writes only *)
  | Ordered_reads of float  (** that fraction are globally ordered queries *)
  | Local_reads of float
      (** that fraction are §6 local queries ({!Replica.local_query}) *)

val request :
  sim:Repro_sim.Engine.t ->
  rng:Rng.t ->
  reads:reads ->
  Replica.t list ->
  int ->
  k:(bool -> unit) ->
  unit
(** The harness's request mix, an [issue] function: request [i] goes to
    replica [i mod n] on one of 64 keys, with values and keys drawn from
    [rng].  An admission [Busy] is retried 3 times after jittered
    exponential backoff from 10 ms; then the request is dropped. *)

(** {1 The paper's measurement}

    [clients] closed-loop clients spread round-robin over the replicas,
    each injecting its next 200-byte action as soon as the previous one
    is globally ordered; no database is attached to the measured path.
    Throughput counts completions inside the measurement window; latency
    is per action, submit to global order at the submitting client. *)

type protocol =
  | Engine_protocol of Disk.mode  (** the paper's replication engine *)
  | Corel_protocol
  | Twopc_protocol

val protocol_name : protocol -> string

type result = {
  r_throughput : float;  (** actions per (virtual) second *)
  r_mean_latency_ms : float;
  r_p99_latency_ms : float;
  r_completed : int;
}

val run :
  ?net_config:Repro_net.Network.config ->
  ?params:Repro_gcs.Params.t ->
  ?servers:int ->
  ?warmup:Time.t ->
  ?duration:Time.t ->
  ?seed:int ->
  clients:int ->
  protocol ->
  result
(** Defaults: 14 servers (the paper's testbed), 2 s warm-up before the
    clients start, 1 s of ramp, then an 8 s window, on the gigabit LAN
    profile (pass [~net_config:Network.lan_100mbit] for the paper's 2001
    testbed). *)
