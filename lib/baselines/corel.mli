open Repro_net
open Repro_gcs
open Repro_storage

(** COReL-style consistent object replication (Keidar 1994), the paper's
    second comparator (§7).

    Actions are disseminated through the same group-communication
    total-order service the engine uses, but each action is end-to-end
    acknowledged: every replica forces the delivered action to stable
    storage and multicasts an acknowledgement; the action commits (joins
    the global persistent order) once acknowledgements from *all* current
    members cover it.  Per action: one forced disk write at every replica
    and n multicast messages — the costs the paper cites.  The
    acknowledgement is cumulative (a replica acknowledges its durable
    prefix), which is the strongest variant in COReL's favour.

    This reproduces the performance-relevant structure of COReL in the
    failure-free runs the paper measures; COReL's own
    partition-recovery machinery (which this paper's engine subsumes) is
    out of scope and view changes simply re-evaluate acknowledgement
    coverage against the new membership. *)

type cluster

val make_cluster :
  ?net_config:Network.config ->
  ?disk_config:Disk.config ->
  ?params:Params.t ->
  ?attach_cpu:bool ->
  ?seed:int ->
  nodes:Node_id.t list ->
  unit ->
  cluster

val sim : cluster -> Repro_sim.Engine.t
val topology : cluster -> Topology.t

val start : cluster -> unit
(** Joins all endpoints; run the simulation until views install. *)

val submit :
  cluster ->
  node:Node_id.t ->
  on_response:(unit -> unit) ->
  unit ->
  unit

val committed : cluster -> int
(** Actions that reached the global persistent order (at their origin). *)
