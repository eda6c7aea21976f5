open Repro_db
open Repro_core

(** A cluster-aware, failure-aware client session.

    Unlike the paper's §2 client, wired to one replica forever, this
    session holds the whole cluster: it detects a dead, partitioned or lagging target by a per-attempt
    deadline, fails over to the next live ready replica (round-robin),
    and retries with capped exponential backoff + full jitter drawn
    from the sim RNG — deterministic per seed.

    Exactly-once across all of that comes from durable request ids:
    every attempt of the session's [seq] carries the same
    [(client id, seq)] pair, the replica-side dedup window
    ({!Repro_core.Dedup}) lets at most one attempt execute, and every
    attempt returns the same replicated response — so the first
    response to arrive completes the seq, whichever attempt produced
    it.  [Busy] (admission-control shedding) is honored by backing off
    on the same target without rotating.

    FIFO with one outstanding request — which is also what makes the dedup window's [seq <= highest] duplicate test
    sound. *)

type t

val default_request_timeout : Repro_sim.Time.t
(** 400 ms: the per-attempt deadline before failover.  Backoff after a
    timeout or [Busy] is drawn from (0, min 2 s (20 ms * 2^(attempt-1))]. *)

val create :
  ?request_timeout:Repro_sim.Time.t ->
  sim:Repro_sim.Engine.t ->
  id:int ->
  replicas:(unit -> Replica.t list) ->
  unit ->
  t
(** [id] must be positive and unique per client (it keys the replicated
    dedup state).  The session starts at replica [(id - 1) mod 64],
    wrapped to the replicas present at creation.  [replicas] is consulted at every attempt, so worlds
    that add joiners are picked up live. *)

val exec :
  t ->
  ?semantics:Action.semantics ->
  ?size:int ->
  Action.kind ->
  k:(Action.response -> unit) ->
  unit
(** Enqueue one operation; [k] fires exactly once, with the replicated
    response, after however many retries and failovers it took. *)

val read :
  t -> string list -> k:((string * Value.t option) list -> unit) -> unit
(** An ordered read carrying its own request id (NOT the §6 local-query
    optimisation: after failover, only ordering the read guarantees
    read-your-writes on the new target). *)

val stop : t -> unit
(** Cease issuing and retrying; pending timers become no-ops. *)

(* --- Observation ---------------------------------------------------- *)

val id : t -> int

val issued : t -> int
(** Sequence numbers issued so far ([= seq] of the newest request). *)

val acked : t -> int
(** Highest sequence number with a received response.  The exactly-once
    ledger invariant: [acked <= applied count <= issued] on every
    replica, where at most [issued - acked <= 1]. *)

val outstanding : t -> int

val retries : t -> int
(** Re-attempts (timeout- or Busy-triggered) beyond each seq's first. *)

val failovers : t -> int
(** Deadline expiries that rotated the session to another replica. *)

val busy_responses : t -> int
(** [Busy] sheds received (each also counts as a retry). *)

val timeouts : t -> int
