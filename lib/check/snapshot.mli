open Repro_net
open Repro_db
open Repro_core

(** Per-replica protocol snapshots and the pure invariant catalogue over
    them.

    Each invariant is derived from a safety lemma of the paper (see
    DESIGN.md, "Invariant catalogue"): global total order and global
    FIFO order (§5.2), quorum exclusivity of primary components (§4),
    and the color monotonicity of Figure 1/3 (red → yellow → green →
    white).  [Monitor] evaluates them online; they are also directly
    usable over hand-built snapshots in unit tests. *)

type violation = {
  v_invariant : string;  (** short invariant name, e.g. "global-fifo" *)
  v_node : Node_id.t option;
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val violation :
  ?node:Node_id.t -> string -> ('a, Format.formatter, unit, violation) format4 -> 'a
(** [violation ?node invariant fmt ...] builds a violation record. *)

type node_snap = {
  ns_node : Node_id.t;
  ns_incarnation : int;
  ns_state : Types.engine_state;
  ns_green_floor : int;  (** positions below it hold no bodies here *)
  ns_green : Action.t list;  (** green order, above the floor *)
  ns_green_count : int;
  ns_green_line : Action.Id.t option;
  ns_red : Action.t list;
  ns_yellow : Types.yellow;
  ns_red_cut : int Node_id.Map.t;
  ns_white_line : int;
  ns_prim : Types.prim_component;
  ns_vulnerable : Types.vulnerable;
  ns_in_primary : bool;
  ns_attempt : int;  (** the installation-attempt counter (§4) *)
  ns_ongoing : Action.t list;
      (** own actions not yet delivered back, oldest first *)
  ns_known_servers : Node_id.Set.t;
}

val of_replica : Replica.t -> node_snap option
(** The replica's engine state, under its {!Replica.incarnation} (which
    scopes step checks).  [None] while the replica is down, has left, or
    is a joiner whose state transfer has not completed. *)

val bprint_facts : Buffer.t -> node_snap -> unit
(** The snapshot as text, one line per field, each led by the node and
    ended by a newline: the one encoding of an engine's state.  Every
    field but the incarnation reaches it (the incarnation records how
    the state was reached, not what it is).  Actions print as
    {!Types.bprint_action} does, with their creation-time green count;
    an invalid vulnerable or yellow record prints as [-] whatever it
    holds.  The model checker hashes this text. *)

val facts : node_snap -> string list
(** {!bprint_facts} split into its lines, which the determinism check
    diffs. *)

(** {2 Instantaneous invariants over one observation} *)

val check_total_order : node_snap list -> violation list
(** Green prefixes of any two replicas agree on their overlap.  O(n)
    comparisons against the longest-prefix reference (pairwise only on
    the rare segment below the reference's own floor). *)

val check_fifo : node_snap list -> violation list
(** Per-creator indices inside every green sequence are gap-free. *)

val check_primary_exclusivity : node_snap list -> violation list
(** At most one live primary component per index; every live member
    belongs to its own component. *)

val check_coherence : node_snap list -> violation list
(** Per-snapshot internal coherence: green line matches the last green
    action, the white line never passes the green count, no white
    action lingers in a valid yellow set. *)

(** {2 Step invariants} *)

val check_step : prev:node_snap -> cur:node_snap -> violation list
(** Color monotonicity between two observations of the same node within
    one incarnation: the green prefix is append-only (green/white
    knowledge is irrevocable), green count / white line / per-creator
    red cuts never regress.  Returns [] when the incarnations differ —
    a crash legitimately loses volatile state. *)

val sweep :
  (Node_id.t, node_snap) Hashtbl.t -> node_snap list -> violation list
(** The instantaneous catalogue plus, per node, {!check_step} against the node's
    previous snapshot in the history table, which then records [snaps] —
    the one sweep both the online monitor and the model checker run. *)
