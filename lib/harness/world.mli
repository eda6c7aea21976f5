open Repro_net
open Repro_storage
open Repro_core

(** A test/experiment world: a cluster of engine replicas plus fault
    injection and convergence helpers.  Used by scenarios, examples and
    the property-based fault-schedule tests. *)

type t

val make :
  ?net_config:Network.config ->
  ?params:Repro_gcs.Params.t ->
  ?disk_config:Disk.config ->
  ?attach_cpu:bool ->
  ?checkpoint_every:int option ->
  ?quorum_policy:Quorum.policy ->
  ?seed:int ->
  ?dedup_window:int ->
  ?admission:Replica.admission ->
  n:int ->
  unit ->
  t
(** [n] replicas on nodes [0..n-1], started.  [disk_config] (and its
    fault model), [checkpoint_every], [dedup_window] (exactly-once
    response cache bound) and [admission] (overload shedding) — see
    {!Replica.create} — apply to every replica, joiners included. *)

val sim : t -> Repro_sim.Engine.t
val topology : t -> Topology.t
val cluster : t -> Replica.cluster
val replicas : t -> Replica.t list
val replica : t -> Node_id.t -> Replica.t
val nodes : t -> Node_id.t list

val add_joiner : t -> node:Node_id.t -> sponsors:Node_id.t list -> Replica.t
(** Adds the node to the topology, creates and starts a joining replica. *)

val attach_monitor : t -> Repro_check.Monitor.t
(** Attaches a repcheck invariant monitor (see [Repro_check]) to every
    replica of the world; it holds the engines to the paper's dynamic
    linear voting, whatever quorum policy the world runs.
    Call before running the scenario; at the end, [Monitor.check_now]
    for a final quiescent sweep and [Monitor.assert_ok]. *)

val run : t -> ms:float -> unit
(** Advance virtual time. *)

val run_until_quiescent : ?max_ms:float -> t -> unit
(** Run until the event queue drains or [max_ms] (default 30_000) pass. *)

val submit_update : t -> node:Node_id.t -> key:string -> int -> unit
(** Fire-and-forget strict update. *)

val submit_procedure :
  t -> node:Node_id.t -> proc:string -> Repro_db.Value.t list -> unit
(** Fire-and-forget active transaction (stored-procedure call). *)

val attach_procedure_guard : t -> Repro_check.Procguard.t
(** Attaches a runtime footprint validator (see [Repro_check.Procguard])
    to every replica of the world, future joiners included: each
    executed procedure's actual key accesses are checked against its
    declared footprint.  [Procguard.assert_ok] at the end of the
    scenario. *)

val heal_and_settle : ?ms:float -> t -> unit
(** Merge all partitions, recover all crashed replicas, run [ms]
    (default 5000) to let exchanges finish. *)
