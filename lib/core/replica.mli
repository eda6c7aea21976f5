open Repro_net
open Repro_gcs
open Repro_storage
open Repro_db

(** A full replication server: database + replication engine + group
    communication endpoint + stable storage + state-transfer channel,
    assembled per the paper's node architecture (§2.1).

    Replicas of one cluster share a payload network (group communication)
    and a transfer network (the point-to-point channel a joining site
    uses to pull a database snapshot from its representative, §5.1). *)

type cluster
(** The shared substrate: simulation engine, topology, both networks. *)

val make_cluster :
  ?net_config:Network.config ->
  ?params:Params.t ->
  ?seed:int ->
  nodes:Node_id.t list ->
  unit ->
  cluster

val cluster_sim : cluster -> Repro_sim.Engine.t
val cluster_topology : cluster -> Topology.t

type t

(** Admission control: a local backpressure gate on {!submit}.  When
    either backlog threshold is crossed, the submission is answered
    [Action.Busy] synchronously — nothing is created, logged or
    ordered — and the client is expected to back off and retry.  This
    is what turns the open-loop overload curve from collapse into a
    goodput plateau. *)
type admission = {
  adm_max_inflight : int;
      (** own strict submissions still awaiting their green response *)
  adm_max_red : int;  (** ordered-but-not-yet-green backlog bound *)
}

val create :
  ?disk_config:Disk.config ->
  ?attach_cpu:bool ->
  ?checkpoint_every:int option ->
  ?weights:Quorum.weights ->
  ?quorum_policy:Quorum.policy ->
  ?dedup_window:int ->
  ?admission:admission ->
  cluster:cluster ->
  node:Node_id.t ->
  servers:Node_id.t list ->
  unit ->
  t
(** A replica of the initial (static) server set.  [attach_cpu] (default
    true) routes its message processing through a serial CPU resource.
    [checkpoint_every] (default [Some 2000]) takes a durable checkpoint —
    database snapshot + green knowledge, followed by log compaction and
    white-action garbage collection — every that many applied actions;
    [None] disables checkpointing.  [dedup_window] (default 8)
    bounds the per-client exactly-once response cache (see {!Dedup});
    [admission] (default none) enables overload shedding. *)

val create_joiner :
  ?disk_config:Disk.config ->
  ?attach_cpu:bool ->
  ?checkpoint_every:int option ->
  ?quorum_policy:Quorum.policy ->
  ?dedup_window:int ->
  ?admission:admission ->
  cluster:cluster ->
  node:Node_id.t ->
  sponsors:Node_id.t list ->
  unit ->
  t
(** A dynamically instantiated replica (paper §5.1/5.2): it connects to
    the sponsor list in order, obtains a PERSISTENT_JOIN and a database
    snapshot, and only then joins the replicated group.  Remember to add
    the node to the topology first. *)

val start : t -> unit
(** Joins the group (or begins the join-by-transfer procedure). *)

val node : t -> Node_id.t

val engine : t -> Engine.t
(** Direct access to the replication engine (read-mostly). *)

val database : t -> Database.t

val procedures : t -> Procedure.registry
(** This replica's stored-procedure registry.  Instance-scoped: two
    replicas (even in one process) never share it.  Deterministic
    replication requires registering the same procedures on every
    replica of a group, exactly as it requires running the same code. *)

val register_procedure :
  ?footprint:Procedure.footprint -> t -> string -> Procedure.body -> unit
(** [register_procedure t name body] adds a procedure to [t]'s own
    registry (shorthand for [Procedure.register (procedures t) ...]).
    [?footprint] declares the key-space footprint the runtime guard
    ({!set_procedure_hook}) and the static drift lint check against. *)

val set_procedure_hook : t -> (Executor.procedure_trace -> unit) -> unit
(** Observes every procedure this replica executes — green apply,
    commutative red answer, dirty-read materialisation and recovery
    replay alike — with its actual key accesses.  Survives crash and
    recovery (the hook lives on the replica, not the engine).  Used by
    [Check.Procguard] to validate declared footprints at run time. *)

val state : t -> Types.engine_state
val in_primary : t -> bool
val is_ready : t -> bool
(** A joiner is ready once its snapshot arrived and it entered the group. *)

(* --- Client interface ---------------------------------------------- *)

val submit :
  t ->
  ?client:int ->
  ?semantics:Action.semantics ->
  ?size:int ->
  ?req_seq:int ->
  ?req_ack:int ->
  Action.kind ->
  on_response:(Action.response -> unit) ->
  unit
(** Submits a transaction.  Strict semantics answer when the action turns
    green at this replica; [Commutative] answers at first local (red)
    application — paper §6.

    [req_seq]/[req_ack] (both default 0 = no tracking) stamp the durable
    per-client request id: a retry of an already-applied [(client,
    req_seq)] is answered from the replicated dedup cache instead of
    re-executing — see {!Dedup} and the client contract there.

    When {!admission} control is configured and a backlog threshold is
    crossed, [on_response] fires synchronously with [Action.Busy] and
    nothing enters the order. *)

val weak_query : t -> string list -> (string * Value.t option) list
(** Immediate answer from the consistent-but-possibly-stale green state. *)

val local_query :
  t ->
  string list ->
  on_response:((string * Value.t option) list -> unit) ->
  unit
(** The paper's §6 read-only optimisation: answered from the green state
    once every earlier action submitted through this replica has been
    applied (session consistency) — no ordering round, no forced write. *)

val dirty_query : t -> string list -> (string * Value.t option) list
(** Immediate answer from green state plus locally known red actions. *)

val leave : t -> unit
(** Permanently leaves the replicated system (PERSISTENT_LEAVE). *)

val checkpoint_now : t -> unit
(** Takes a durable checkpoint immediately (snapshot + compaction + GC). *)

val log_entries : t -> int
(** Entries currently in the write-ahead log (observes compaction). *)

val log_flushes : t -> int
(** Physical flushes the stable storage performed so far (measures the
    forced-write and group-commit cost of a run, survives crashes). *)

val cpu_stats : t -> (int * Repro_sim.Time.t) option
(** Attached-CPU pressure: (jobs queued or running, cumulative busy
    time).  [None] when the replica runs without a CPU resource. *)

(* --- Failure injection --------------------------------------------- *)

val crash : t -> unit
(** Loses all volatile state (database included); stable storage
    retains the durable log prefix — possibly torn or corrupted, per
    the disk's fault model. *)

val recover : t -> unit
(** Restarts from stable storage (paper CodeSegment A.13) and rejoins.
    Recovery verifies the log's record framing and acts on the verdict:
    a torn tail is truncated and recovery proceeds in place; interior
    corruption past the last checkpoint salvages the trusted prefix;
    anything worse triggers {e amnesiac recovery} — the log is
    discarded and the replica re-enters through the §5.1 join/state-
    transfer path under a fresh incarnation, so no stale red/green
    claims leak back into the group. *)

val last_recovery : t -> Persist.verdict option
(** What the most recent [recover] decided ([None] before the first). *)

val corrupt_log : t -> nth:int -> bool
(** Damage the [nth] stable-log record (0-based, append order):
    deterministic fault injection for tests and the nemesis driver.
    [false] when out of range. *)

val is_up : t -> bool

val incarnation : t -> int
(** Bumped on every crash.  Observers (the repcheck monitor) compare
    incarnations to know when volatile state was legitimately lost and
    monotonicity baselines must reset. *)

val set_audit :
  ?input:(Types.payload Endpoint.event -> unit) -> t ->
  (Engine.audit_event -> unit) -> unit
(** Attaches the engine audit and input sinks ({!Engine.set_audit}),
    re-attached across crash/recovery and joiner instantiation. *)

(* --- Statistics ----------------------------------------------------- *)

val greens_applied : t -> int
val actions_submitted : t -> int

val dupes_suppressed : t -> int
(** Retried-but-already-applied requests answered from the dedup cache
    instead of re-executing (recovery replay included).  Survives
    crashes, like [actions_submitted]. *)

val shed : t -> int
(** Submissions answered [Busy] by admission control.  Survives crashes. *)

val dedup_window : t -> int

val dedup_max_cached : t -> int
(** Largest per-client cached-response list currently held — bounded by
    [dedup_window] (the replicated-state-growth property tests assert
    this). *)

val dedup_summary : t -> (int * int * int) list
(** [(client, highest applied req_seq, acked)] triples in client order:
    the convergence-relevant view of the exactly-once window.  Equal on
    every replica at the same green position. *)

val transfer_chunks_sent : t -> int
(** State-transfer chunks this replica served as a representative
    (observes resume: a resumed transfer re-sends only the tail). *)
