open Repro_net
open Repro_gcs
open Repro_core
module Check = Repro_check

(** The system under test: one {!Replica} per node — the replica the
    simulated world runs, with its engine, log, crash and recovery —
    over the abstract EVS service ({!Model}, through
    {!Replica.model_cluster}), driven one {!Script.transition} at a
    time.  Each transition runs the simulation to quiescence, so the
    only nondeterminism is the caller's choice of transition; after each
    one the repcheck [Snapshot] catalogue and the abstract-spec
    refinement oracle ({!Check.Spec}) are evaluated. *)

type t

type result = {
  applied : bool;  (** the transition was enabled and ran *)
  appends : Conf_id.t list;
      (** configuration logs appended to — the DPOR footprint *)
  violations : Check.Snapshot.violation list;
}

val create : ?policy:Quorum.policy -> nodes:int -> unit -> t
(** Fresh replicas on nodes [0 .. nodes-1], one connected component, no
    configuration delivered yet ([policy] defaults to the paper's
    dynamic linear voting; pass [Mutated_weak_majority] to hunt the
    seeded bug). *)

val stabilize : t -> Check.Snapshot.violation list
(** Delivers everything round-robin until quiescent (at most 10,000
    deliveries) — boots the system to its first installed primary,
    outside any exploration budget — and runs the oracles once.  A
    correct engine returns []. *)

val enabled : t -> Script.transition list
(** All currently enabled transitions in canonical order: deliveries,
    submissions, crashes, recoveries, canned partitions, merge. *)

val apply : t -> Script.transition -> result
(** Executes one transition to quiescence; [applied = false] (and no
    state change) when it is not currently enabled — replays of
    minimized scripts skip such lines. *)

val fingerprint : t -> string
(** Digest of the logical state: topology, per node the replica's
    {!Check.Snapshot.facts} (or a crash marker) and durable-log length,
    and the EVS model with its queued payloads as {!Types.pp_payload}
    prints them.  Virtual time and incarnation counters are excluded —
    they encode history, not state. *)

val node_state : t -> Node_id.t -> Types.engine_state option
