(** The partition oracle.

    Tracks which network component each node currently belongs to.  The
    simulation scripts partitions and merges by mutating this structure;
    the {!Network} consults it at *delivery* time, so a message in flight
    when a partition occurs is dropped if its endpoints are no longer
    connected (mirroring a real network where queued frames on a cut link
    are lost). *)

type t

val create : nodes:Node_id.t list -> t
(** All [nodes] start in a single component. *)

val connected : t -> Node_id.t -> Node_id.t -> bool
(** Whether two nodes are currently in the same component.  A node is
    always connected to itself.  Two array reads: the network asks per
    message sent and per message delivered. *)

val component_of : t -> Node_id.t -> Node_id.Set.t
(** The set of nodes in the same component as the argument. *)

val components : t -> Node_id.Set.t list
(** All current components, each non-empty, pairwise disjoint. *)

val partition : t -> Node_id.t list list -> unit
(** [partition t groups] installs the given components.  Nodes not listed
    keep their current grouping but are split from all listed nodes into
    their own residual component per existing component.  Raises
    [Invalid_argument] if a node appears twice. *)

val merge_all : t -> unit
(** Heals the network: every node back in one component. *)

val merge : t -> Node_id.t list -> unit
(** Merges the components containing the given nodes into one. *)

val add_node : t -> Node_id.t -> unit
(** Adds a brand-new node, initially in the same component as everyone
    (joins the largest component if partitioned). *)

val isolate : t -> Node_id.t -> unit
(** Puts one node alone in its own component. *)

val epoch : t -> int
(** Increments on every connectivity change; lets pollers detect change
    cheaply. *)

val fingerprint : t -> string
(** Canonical digest of the current grouping: components as sorted member
    lists joined with [|].  Independent of internal label history — equal
    groupings fingerprint equally. *)
