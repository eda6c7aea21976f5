open Repro_net
open Repro_storage
open Repro_core

(** A test/experiment world: a cluster of engine replicas plus fault
    injection and convergence helpers.  The one place the harness
    assembles replicas: scenarios, nemesis campaigns, every measured
    engine cluster of {!Experiment} and {!Figures}, and the tests. *)

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
(** [n] replicas on nodes [0..n-1], started, each a
    [Replica.Static] member of the initial set.  [disk_config] (and its
    fault model), [checkpoint_every], [quorum_policy], [dedup_window]
    (exactly-once response cache bound) and [admission] (overload
    shedding) — see {!Replica.create} — apply to every replica, joiners
    included: the world builds each with one [Replica.create] call over
    these settings, differing only in node and role. *)

val sim : t -> Repro_sim.Engine.t
val topology : t -> Topology.t
val replicas : t -> Replica.t list
(** Every replica, in node order, joiners last: a list the world keeps
    (and {!add_joiner} rebuilds), so a call allocates nothing. *)

val replica : t -> Node_id.t -> Replica.t
val nodes : t -> Node_id.t list

val add_joiner : t -> node:Node_id.t -> sponsors:Node_id.t list -> Replica.t
(** Adds the node to the topology, creates a [Replica.Joiner] with the
    world's settings, hooks it to the attached monitor and footprint
    guard, and starts it: it enters from the checkpoint the first
    sponsor that answers ships. *)

val attach_monitor : t -> Repro_check.Monitor.t
(** Attaches a repcheck invariant monitor (see [Repro_check]) to every
    replica of the world, joiners {!add_joiner} adds later included, or
    returns the one already attached; it holds
    the engines to the paper's dynamic linear voting, whatever quorum
    policy the world runs.  Call before running the scenario; {!verdict}
    takes its final sweep. *)

val run : t -> ms:float -> unit
(** Advance virtual time. *)

val submit_update : t -> node:Node_id.t -> key:string -> int -> unit
(** Fire-and-forget strict update. *)

val submit_procedure :
  t -> node:Node_id.t -> proc:string -> Repro_db.Value.t list -> unit
(** Fire-and-forget active transaction (stored-procedure call). *)

val attach_procedure_guard : t -> Repro_check.Procguard.t
(** Attaches a runtime footprint validator (see [Repro_check.Procguard])
    to every replica of the world, future joiners included: each
    executed procedure's actual key accesses are checked against its
    declared footprint.  {!verdict} reports what it found. *)

val heal_and_settle : ?ms:float -> t -> unit
(** Merge all partitions, recover all crashed replicas, run [ms]
    (default 5000) to let exchanges finish. *)

val safety : t -> Repro_check.Snapshot.violation list
(** The safety of a running world, partitions possibly still open: the
    findings of the world's monitor ({!attach_monitor}; attached now if
    it was not, it has seen none of the run's earlier steps) after one
    [Monitor.check_now] — total order, FIFO,
    primary exclusivity, coherence and the Figure 4 spec — then
    {!Consistency.check_single_primary}. *)

val verdict :
  t -> ledgers:Consistency.ledger list -> Repro_check.Snapshot.violation list
(** Every end-of-run oracle, once, over a settled world, in this order:
    - {!safety};
    - {!Consistency.check_convergence} and
      {!Consistency.check_exactly_once} over [ledgers];
    - each finding of the footprint guard, if one is attached, as a
      [procedure-footprint] violation;
    - [liveness]: every replica that has not left
      ({!Replica.has_left}) is ready. *)

val assert_safe : t -> unit
(** Raises [Failure] listing the {!safety} findings, if any. *)

val assert_ok : t -> ledgers:Consistency.ledger list -> unit
(** Raises [Failure] listing the {!verdict}'s findings, if any. *)
