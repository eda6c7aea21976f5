open Repro_net

(** An abstract Extended Virtual Synchrony service for model checking.

    Replaces the timing-driven {!Endpoint} stack with its protocol-level
    contract: each installed configuration is a shared append-only log;
    {!send} appends to the sender's current configuration; each member
    delivers the log in order at its own pace, so {b which member
    delivers next} is the interleaving freedom a controlled scheduler
    explores.  {!reconfigure} closes configurations whose membership no
    longer matches a connectivity component and queues, per surviving
    member, the EVS view-change sequence: remaining regular deliveries up
    to the farthest point any member reached ([in_regular = true] — the
    safe-delivery guarantee), the transitional configuration, the
    leftover deliveries demoted to [in_regular = false], then the next
    regular configuration.

    Deterministic by construction: the only nondeterminism is which
    node the caller asks to {!deliver} next, and which faults the caller
    injects.  The caller must call {!reconfigure} after every
    {!crash}, {!recover} or connectivity change, passing the current
    components — an open configuration must keep exactly its live
    members. *)

type 'p t

val create :
  nodes:Node_id.t list -> pp_payload:('p -> string) -> unit -> 'p t
(** No configuration yet: call {!reconfigure} to install the first.
    [pp_payload] must be a stable rendering — it enters fingerprints and
    choice labels. *)

val send : 'p t -> from:Node_id.t -> 'p -> unit
(** Appends to the sender's current configuration.  If the sender has no
    installed configuration, or its configuration has been closed by a
    reconfiguration it has not yet seen, the message is lost (counted in
    {!lost_sends}) — like an unordered message at a real view change. *)

val deliver : 'p t -> Node_id.t -> 'p Endpoint.event option
(** Delivers the next queued event at a node, advancing its cursor.
    [None] when the node is crashed or fully caught up. *)

val has_pending : 'p t -> Node_id.t -> bool

val next_is_fresh : 'p t -> Node_id.t -> bool
(** Whether the node's next event is a regular delivery in an open
    configuration, as opposed to view-change fallout (leftovers,
    transitional/regular configuration notices).  The model checker
    coalesces fallout into the transition that consumes it. *)

val crash : 'p t -> Node_id.t -> unit
(** The node loses its queued events and goes silent; its delivery
    cursors remain, so closes still honour what it saw in_regular. *)

val recover : 'p t -> Node_id.t -> unit
(** The node rejoins, with no configuration until {!reconfigure}. *)

val reconfigure : 'p t -> components:Node_id.Set.t list -> unit
(** Aligns configurations with the given connectivity components
    (crashed nodes are excluded automatically).  Configurations whose
    live membership matches a component stay open, undisturbed. *)

val take_appended : 'p t -> Conf_id.t list
(** Configurations appended to since the last call — the footprint the
    partial-order reduction uses to detect racing transitions. *)

val lost_sends : 'p t -> int

val fingerprint : 'p t -> string
(** Canonical digest of logs, cursors, scripts and liveness. *)
