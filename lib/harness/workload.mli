open Repro_sim
open Repro_core

(** Workload generators over a set of replicas.

    Two arrival models:
    - {b closed-loop}: each client keeps exactly one transaction in
      flight (the paper's §7 setup);
    - {b open-loop}: Poisson arrivals at a target rate, regardless of
      completions — exposes saturation behaviour the closed loop hides.

    The operation mix is configurable: a fraction of reads (served
    through the §6 local-query path when [optimized_reads], or as
    globally ordered query actions when not — the A3 ablation), strict
    writes, and commutative writes. *)

type mix = {
  read_fraction : float;  (** in [0,1] *)
  commutative_fraction : float;
      (** fraction of the *writes* that are commutative increments *)
  optimized_reads : bool;
      (** serve reads via [local_query] instead of ordering them *)
  keys : int;  (** key-space size *)
  action_size : int;
}

val default_mix : mix
(** Write-only strict updates, 200-byte actions (the paper's workload). *)

type t

val closed_loop :
  ?deadline:Time.t ->
  ?busy_retries:int ->
  ?retry_backoff:Time.t ->
  sim:Repro_sim.Engine.t ->
  mix:mix ->
  clients:int ->
  replicas:Replica.t list ->
  unit ->
  t
(** Starts [clients] closed-loop clients round-robin over the replicas.

    [deadline] marks a completion as {i good} only when its latency is
    within it (goodput accounting; default: every completion is good).
    [busy_retries] (default 3) bounds re-submissions after an admission
    [Busy], spaced by jittered exponential backoff from [retry_backoff]
    (default 10 ms); past the budget the request is dropped and counted
    as {!shed}. *)

val open_loop :
  ?deadline:Time.t ->
  ?busy_retries:int ->
  ?retry_backoff:Time.t ->
  sim:Repro_sim.Engine.t ->
  mix:mix ->
  rate_per_sec:float ->
  replicas:Replica.t list ->
  unit ->
  t
(** Starts a Poisson arrival process at [rate_per_sec], submissions
    spread round-robin over the replicas.  Runs until [stop].  Optional
    arguments as in {!closed_loop}. *)

val start_measuring : t -> unit
(** Resets counters; subsequent completions are recorded. *)

val stop : t -> unit
(** Stops issuing new operations (outstanding ones still complete). *)

val completed : t -> int

val latencies_ms : t -> Stats.Summary.t
val throughput : t -> over:Time.t -> float

val goodput : t -> over:Time.t -> float
(** In-deadline completions per second over the window. *)
