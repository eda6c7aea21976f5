open Repro_net
open Repro_gcs
open Repro_db

(** The replication engine: the paper's algorithm (Figure 4, Appendix A,
    CodeSegments 5.1/5.2).

    One engine runs at each replica, above an EVS group-communication
    endpoint and a write-ahead log, and below the database.  It turns the
    stream of endpoint events into a global persistent total order of
    actions: actions delivered safely in the primary component turn green
    immediately (no per-action end-to-end acknowledgement); actions
    delivered elsewhere stay red until knowledge propagates; view changes
    trigger one state-exchange round, retransmission, quorum evaluation
    (dynamic linear voting) and, when quorate, the Create-Primary-
    Component round guarded by the [vulnerable] record. *)

type callbacks = {
  on_green : Action.t array -> unit;
      (** a delivery burst's actions reached their places in the global
          order, in green order: apply them as one group-committed
          batch.  Invoked once per burst (the batch is never empty); the
          array is the burst's green log frame itself, so the callee
          reads it and must not modify it. *)
  on_red : Action.t -> unit;
      (** the action was accepted locally (dirty knowledge) *)
  on_transfer_request : joiner:Node_id.t -> unit;
      (** a [Join] created by this server turned green: this server is
          the representative and must snapshot and transfer state *)
  on_self_leave : unit -> unit;
      (** this server's [Leave] turned green: it exits the system *)
  send : service:Endpoint.service -> size:int -> Types.payload -> unit;
      (** multicast through the group communication layer *)
  on_resync : unit -> unit;
      (** a state exchange found this server's green prefix below
          every body any member still holds (white actions were
          discarded past it), so no retransmission can catch it up.
          The engine has halted; the server must discard its state and
          re-enter by state transfer, without re-minting any action id
          this engine created. *)
}

type t

(** Cumulative counters, for observability and tests. *)
type stats = {
  mutable s_exchanges : int;  (** state-exchange rounds started *)
  mutable s_installs : int;  (** primary components installed here *)
  mutable s_retrans_batches : int;  (** retransmission batches sent *)
  mutable s_actions_resent : int;  (** ongoing actions re-multicast *)
  mutable s_submit_batches : int;
      (** submission batches logged and sent (frames on the forced
          path): one per direct submission, one per buffered burst *)
  mutable s_batched_submissions : int;
      (** actions carried by those batches — the ratio to
          [s_submit_batches] is the achieved mean batch size *)
}

(** A structured feed of protocol-level decisions, consumed by the
    repcheck invariant monitor ([Repro_check]).  Purely observational:
    whether a sink is attached never changes engine behaviour. *)
type audit_event =
  | Audit_state of Types.engine_state  (** state-machine transition *)
  | Audit_quorum of {
      aq_members : Node_id.Set.t;  (** candidate set (the view) *)
      aq_vulnerable : Node_id.Set.t;
          (** members whose knowledge-computed vulnerable record is
              still valid at decision time (paper §5, [IsQuorum]) *)
      aq_prev_prim : Types.prim_component;
          (** the last installed primary the quorum is taken against *)
      aq_granted : bool;
    }  (** an [IsQuorum] evaluation at the end of a state exchange *)
  | Audit_install of Types.prim_component
      (** a primary component was installed at this server *)

val set_audit :
  ?input:(Types.payload Endpoint.event -> unit) -> t ->
  (audit_event -> unit) -> unit
(** Attaches (or replaces) the audit and {!handle_event} input sinks. *)

val recover :
  quorum:Quorum.policy ->
  recovered:Persist.recovered ->
  sim:Repro_sim.Engine.t ->
  node:Node_id.t ->
  servers:Node_id.Set.t ->
  persist:Persist.t ->
  callbacks:callbacks ->
  unit ->
  t
(** The one start of a server with a log (paper CodeSegment A.13):
    the engine rebuilt from [recovered], a [Persist.recover] result or
    {!Persist.fresh} for a new member of the initial set [servers]
    (whose initial primary is the full set with index 0).  Own ongoing
    actions past the durable red cut are re-marked red and stay queued
    for re-proposal after the next state exchange.  The re-marks and one
    meta record are logged but not forced: a crash-recovering caller
    forces them.  The caller rebuilds its database from [recovered]; no
    application callback fires.  Not for a [V_amnesia] verdict: that
    server rejoins through {!create_from_snapshot}. *)

val create_from_snapshot :
  quorum:Quorum.policy ->
  checkpoint:Persist.checkpoint ->
  action_floor:int ->
  sim:Repro_sim.Engine.t ->
  node:Node_id.t ->
  persist:Persist.t ->
  callbacks:callbacks ->
  unit ->
  t
(** A dynamically instantiated replica (paper CodeSegment 5.2): its green
    prefix starts at the sponsor's [checkpoint] with no action bodies
    (the database state and exactly-once window arrived in it).  The
    checkpoint is logged as this replica's first, under its own meta:
    the sponsor's primary and server set, an invalid vulnerable record
    and yellow set, attempt 0.  [action_floor] seeds the action-index
    counter: an amnesiac rejoiner passes the sponsor's red cut for it,
    so ids of its discarded life are never re-minted; the ids above the
    checkpoint's green cut up to the floor are re-proposed as no-op
    fillers, each logged as an ongoing frame before the checkpoint. *)

val checkpoint_record :
  t -> dedup:Dedup.snapshot -> Database.snapshot -> Persist.checkpoint
(** The checkpoint at the current green position, for the caller's
    database [snapshot] and exactly-once window [dedup] taken there:
    what {!checkpoint} logs and what a sponsor ships to a joiner. *)

val checkpoint : t -> dedup:Dedup.snapshot -> Database.snapshot -> unit
(** Records a durable checkpoint of the engine's green knowledge paired
    with the database [snapshot] and exactly-once window [dedup] at the
    same point, then compacts the write-ahead log and discards stored
    bodies of white actions (green at every known server).  Call with a
    snapshot taken at the current green position. *)

val halt : t -> unit
(** Silences the engine for good: later input and submissions are
    ignored, and pending continuations (a paced retransmission, the send
    after a log force) never run.  A replica halts the engine it drops,
    so a dead life sends nothing into its successor's configuration. *)

(* --- Event input -------------------------------------------------- *)

val handle_event : t -> Types.payload Endpoint.event -> unit
(** Feed every event of the group-communication endpoint here.  Each
    call is (at least) one delivery burst: red/green marks made while
    processing it are group-committed at its end — one multi-record log
    frame per colour and one [on_green] application batch. *)

val handle_delivery :
  t ->
  sender:Node_id.t ->
  conf:Conf_id.t ->
  seq:int ->
  in_regular:bool ->
  Types.payload ->
  unit
(** [handle_delivery t ~sender ~conf ~seq ~in_regular p] is
    [handle_event t (Deliver {sender; payload = p; conf; seq; in_regular})]
    without building the event, unless an input sink is attached
    ({!set_audit}), which receives it as before — the engine's entry
    for {!Endpoint.create}'s [on_deliver]. *)

val handle_conf : t -> Types.payload Endpoint.event -> unit
(** {!handle_event} for a configuration change ([Trans_conf] or
    [Reg_conf]); raises [Invalid_argument] on a [Deliver].  Unlike a
    delivery, a configuration change never multicasts before its log
    force: the endpoint's [on_event] feeds this entry while deliveries
    take {!handle_delivery}. *)

val begin_burst : t -> unit
val end_burst : t -> unit
(** Bracket a multi-event delivery burst (the GCS endpoint delivers a
    run of ordered messages when safety advances): marks made by the
    bracketed [handle_event] calls flush once, at the outermost
    [end_burst], instead of per event.  Nesting is refcounted; the
    per-event flush inside [handle_event] uses the same refcount, so an
    unbracketed engine behaves identically, just with burst = event. *)

val submit :
  t ->
  client:int ->
  semantics:Action.semantics ->
  size:int ->
  req_seq:int ->
  req_ack:int ->
  kind:Action.kind ->
  on_created:(Action.Id.t -> unit) ->
  unit
(** A client request: creates the action now when in [Reg_prim] or
    [Non_prim] (write to the ongoing queue, forced sync, then multicast
    as a one-action [Action_batch]) and buffers it otherwise — requests
    buffered during an exchange are created, logged and multicast
    together as one batch when it resolves; [on_created] reports the
    assigned id.
    [req_seq]/[req_ack] stamp the durable per-client request id for
    exactly-once retries (see {!Action.t}); 0 for requests without one.
    Every label is required: this runs once per client operation, and an
    optional argument would box each value it is passed. *)

(* --- Observation --------------------------------------------------- *)

val node : t -> Node_id.t
val state : t -> Types.engine_state
val green_count : t -> int
val green_actions : t -> Action.t list
val red_actions : t -> Action.t list

(** [List.length (red_actions t)], in O(1) — cache keys and stats on
    the query hot path must not walk the red queue. *)
val red_count : t -> int
val green_line : t -> Action.Id.t option

val ongoing_actions : t -> Action.t list
(** Own created actions not yet delivered back, oldest first (they are
    re-sent after every exchange; part of the logical replica state a
    model checker fingerprints). *)

val attempt : t -> int
(** The installation-attempt counter guarded by the vulnerable record
    (paper §4) — logical state a model checker fingerprints. *)

val red_cut : t -> Node_id.t -> int

val action_index : t -> int
(** The highest own action index this engine minted or saw. *)

val green_cut_map : t -> int Node_id.Map.t
(** Per creator, the index of its last action inside the green prefix —
    the red cut a snapshot-instantiated replica starts from. *)

val red_cut_map : t -> int Node_id.Map.t
(** The whole red cut, per creator (observability; the repcheck monitor
    asserts its per-creator monotonicity). *)

val known_servers : t -> Node_id.Set.t
val prim_component : t -> Types.prim_component
val vulnerable : t -> Types.vulnerable
val yellow : t -> Types.yellow
val white_line : t -> int
(** Green positions known green at every known server (discardable). *)

val in_primary : t -> bool
(** Whether this replica currently operates in the primary component. *)

val stats : t -> stats
