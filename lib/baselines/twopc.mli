open Repro_sim
open Repro_net
open Repro_storage

(** Two-phase commit replication, the paper's first comparator (§7).

    Each action is a distributed transaction coordinated by the replica
    that received it: PREPARE to all peers (n-1 unicasts), each
    participant forces a prepare record to disk before voting YES, the
    coordinator forces the commit decision, then sends COMMIT (n-1
    unicasts).  Presumed-commit variant: per action, two forced disk
    writes on the critical path (participant prepare + coordinator
    commit decision) and 2n unicast messages — the costs the paper
    cites.  A missing vote aborts the transaction
    after a timeout (participant crash / partition); 2PC's blocking
    behaviour under coordinator failure is reported, not worked around.

    As in the paper's measurements, clients are answered when the action
    commits globally; no database is attached. *)

type cluster

val make_cluster :
  ?net_config:Network.config ->
  ?disk_config:Disk.config ->
  ?attach_cpu:bool ->
  ?seed:int ->
  nodes:Node_id.t list ->
  unit ->
  cluster

val sim : cluster -> Engine.t
val topology : cluster -> Topology.t

type outcome = Committed | Aborted

val submit :
  cluster ->
  node:Node_id.t ->
  on_response:(outcome -> unit) ->
  unit ->
  unit
(** A client action entering at [node] (its coordinator). *)

val committed : cluster -> int
val aborted : cluster -> int
val crash : cluster -> Node_id.t -> unit
val recover : cluster -> Node_id.t -> unit
