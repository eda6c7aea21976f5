open Repro_sim
open Repro_net
open Repro_storage

(** Two-phase commit replication, the paper's first comparator (§7).

    Each action is a distributed transaction coordinated by the replica
    that received it.  The coordinator logs nothing and sends PREPARE
    to every peer (n-1 unicasts); each participant forces a prepare
    record to disk and votes YES (n-1 unicasts); once every vote is in,
    the coordinator forces its commit decision, answers the client and
    sends COMMIT (n-1 unicasts).  Participants write no commit record
    and send no acknowledgement, so this is neither textbook
    presumed-abort nor presumed-commit.  Per action: two forced disk
    writes on the critical path (participant prepare, then coordinator
    decision) — the paper's count — and 3(n-1) unicast messages, where
    the paper counts 2n.  A missing vote aborts the transaction after a
    timeout (participant crash / partition); 2PC's blocking behaviour
    under coordinator failure is reported, not worked around.

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
