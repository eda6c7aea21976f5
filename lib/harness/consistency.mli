open Repro_core

(** The global correctness checker: evaluates the paper's safety and
    liveness properties (§5.2) over a set of replicas.

    All checks are observational — they read engine state, never mutate
    it — so scenarios and property tests can call them at any point.
    Their findings are {!Repro_check.Snapshot.violation}s, the one
    violation type of every oracle; {!World.verdict} runs them, with
    the monitor's sweep, the footprint guard and liveness, over a
    settled world. *)

type violation = Repro_check.Snapshot.violation

val pp_violation : Format.formatter -> violation -> unit
(** {!Repro_check.Snapshot.pp_violation}. *)

val check_single_primary : Replica.t list -> violation list
(** At most one group of live replicas believes it is the primary
    component, identified by the installed primary index. *)

val check_convergence : Replica.t list -> violation list
(** After healing and quiescence (liveness, Theorem 3): all ready
    replicas have equal green counts, equal database digests and equal
    exactly-once windows ({!Replica.dedup_summary}).  Each finding
    names the replica that differs from the first ready one. *)

type ledger = {
  l_client : int;
  l_key : string;
  l_issued : int;  (** sequence numbers the client issued *)
  l_acked : int;  (** sequence numbers the client saw responses for *)
}
(** One client's exactly-once ledger over a private counter key that
    each of its requests incremented by exactly 1. *)

val check_exactly_once : ledgers:ledger list -> Replica.t list -> violation list
(** The client-visible end-to-end guarantee: on every ready replica and
    for every ledger, [l_acked <= value(l_key) <= l_issued].  Below the
    acks means an acknowledged request was lost; above the issues means
    a retry was applied more than once. *)

val check_all : ?converged:bool -> Replica.t list -> violation list
(** Every safety check; [converged] (default false) adds the
    convergence check.  Theorem 1 (global total order: green prefixes
    agree on their overlap) and Theorem 2 (global FIFO: per-creator
    indices in each green sequence are increasing and gap-free) are
    {!Repro_check.Snapshot.check_total_order} and
    {!Repro_check.Snapshot.check_fifo} over the ready replicas. *)
