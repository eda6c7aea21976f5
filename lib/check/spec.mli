open Repro_net
open Repro_gcs
open Repro_core

(** The abstract-specification conformance oracle: an executable model
    of the paper's Figure 4 / Appendix A automaton that every concrete
    {!Engine} step must refine.

    Feed it, per node and in order, the group-communication events the
    engine consumes ({!on_input}) and the audit feed the engine emits
    ({!on_audit}) — wire them as the engine's two sinks
    ({!Engine.set_audit}).  Both the online {!Monitor} and the model
    checker do.  It verifies that

    - each state transition is a Figure 4 edge taken under its abstract
      trigger,
    - each quorum decision equals the specification's IsQuorum (dynamic
      linear voting over the last installed primary, vulnerable members
      excluded),
    - each install is justified by a granted quorum, advances the
      primary index by one, and never disagrees with another server's
      installation of the same index.

    Violations carry the invariant name ["spec-refinement"] and are
    drained with {!take}. *)

val all_states : Types.engine_state list
(** Every Figure 4 state, in the declaration order of
    {!Types.engine_state}. *)

val state_name : Types.engine_state -> string
(** The constructor name — the vocabulary shared with the static
    spec-drift analysis ([lib/analysis]), which reads state names off
    the typed AST. *)

val edges : (Types.engine_state option * Types.engine_state) list
(** The guard-erased Figure 4 edge set, [(source, target)]; a [None]
    source is a wildcard (the edge leaves every state).  The static
    spec-drift analysis diffs the transitions compiled into
    [lib/core/engine.ml] against this table. *)

type t

val create : unit -> t
(** The specification's quorum system is the paper's unweighted dynamic
    linear voting. *)

val on_input :
  t -> node:Node_id.t -> Types.payload Endpoint.event -> unit
(** An endpoint event is about to reach the node's engine: wire as the
    engine's input sink. *)

val on_audit : t -> node:Node_id.t -> Engine.audit_event -> unit
(** Wire as the engine's audit sink. *)

val on_recover : t -> node:Node_id.t -> unit
(** The node's engine was rebuilt from stable storage: its abstract
    state restarts at NonPrim.  The global install registry survives —
    exclusivity spans crashes. *)

val take : t -> Snapshot.violation list
(** Drains accumulated violations, oldest first. *)
