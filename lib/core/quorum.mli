open Repro_net

(** Dynamic linear voting (Jajodia & Mutchler), the paper's quorum system.

    A connected component may install the next primary component iff it
    contains a majority of the membership of the {e last} primary
    component.  An exact half also qualifies when it contains the
    lowest-id member of that primary — the classic linear tie-breaker,
    which keeps quorums unique: two disjoint sets can never both be
    quorate over the same previous primary. *)

val has_majority : prev:Node_id.Set.t -> Node_id.Set.t -> bool
(** [has_majority ~prev candidate]: does [candidate] hold a strict
    majority of [prev], or exactly half including the tie-breaker
    member? [prev] empty returns [false]. *)

val is_quorum :
  prev:Node_id.Set.t -> vulnerable_present:bool -> Node_id.Set.t -> bool
(** The paper's [IsQuorum]: no member of the component may be vulnerable,
    and the component must hold a dynamic-linear-voting majority of the
    last primary component. *)

(** Which set a majority is required of.  The paper (§3.1) notes several
    quorum systems work and picks dynamic linear voting; [Static_majority]
    is the classic alternative — always a majority of the full replica
    set — trading adaptivity for simplicity.  The availability ablation
    compares them under partition churn. *)
type policy =
  | Dynamic_linear  (** majority of the last installed primary (paper) *)
  | Static_majority  (** majority of the known replica set *)
  | Mutated_weak_majority
      (** deliberately broken: half of the last primary suffices
          ([2*have >= all], no tie-breaker), so two disjoint halves can
          both be quorate — the seeded fault the model checker's smoke
          test must catch.  Never use outside checker tests. *)

val policy_quorum :
  policy ->
  prev:Node_id.Set.t ->
  all:Node_id.Set.t ->
  vulnerable_present:bool ->
  Node_id.Set.t ->
  bool
(** How a replica under [policy] votes.  [Dynamic_linear] is exactly
    {!is_quorum} over [prev]; [Static_majority] is {!is_quorum} over
    [all]. *)
