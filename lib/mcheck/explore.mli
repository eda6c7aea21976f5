open Repro_core
module Check = Repro_check

(** The bounded stateless DFS explorer: dynamic partial-order reduction
    over delivery transitions (independence = disjoint configuration-log
    footprints at different nodes), sleep sets, and a state-fingerprint
    cache with budget-vector dominance.  Fault and submission
    transitions are branched exhaustively within their budgets — they
    are optional actions outside the DPOR theorem.  Counterexamples are
    minimized greedily and replayable with {!replay_violations}. *)

type budgets = { b_depth : int; b_faults : int; b_submits : int }

type stats = {
  mutable st_states : int;  (** choice points expanded *)
  mutable st_executed : int;  (** transitions executed (incl. replays) *)
  mutable st_enabled_sum : int;  (** Σ budget-eligible candidates *)
  mutable st_branches : int;  (** children actually explored *)
  mutable st_sleep_skips : int;
  mutable st_cache_hits : int;
  mutable st_races : int;  (** backtrack points added by DPOR *)
  mutable st_distinct : int;  (** distinct fingerprints seen *)
  mutable st_elapsed : float;  (** CPU seconds *)
}

val reduction_factor : stats -> float
(** Candidate branches per explored branch: how much wider full
    branching would have been at the expanded states. *)

val pp_stats : Format.formatter -> stats -> unit

type counterexample = {
  cx_script : Script.transition list;  (** minimized *)
  cx_raw_len : int;  (** length before minimization *)
  cx_violations : Check.Snapshot.violation list;
}

type outcome = {
  found : counterexample option;
  stats : stats;
  complete : bool;  (** false when [max_states] stopped the search *)
}

val run :
  ?policy:Quorum.policy ->
  ?max_states:int ->
  nodes:int ->
  depth:int ->
  faults:int ->
  submits:int ->
  unit ->
  outcome
(** Explores every interleaving of at most [depth] deliveries, [faults]
    fault injections and [submits] client submissions from the
    stabilized initial state, modulo the reductions. *)

val replay_violations :
  policy:Quorum.policy ->
  nodes:int ->
  Script.transition list ->
  (Script.transition list * Check.Snapshot.violation list) option
(** Deterministically replays a script on a fresh system; returns the
    applied prefix up to and including the first failing transition and
    its violations, or [None] if the whole script runs clean.
    Not-currently-enabled lines are skipped (minimization can leave
    them). *)

val minimize :
  policy:Quorum.policy ->
  nodes:int ->
  Script.transition list ->
  Script.transition list
(** Greedy delta-debugging: drops transitions one at a time, keeping
    each drop that still reproduces a violation. *)
