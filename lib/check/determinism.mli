open Repro_core

(** Determinism checking.

    The simulation is virtual-time, integer-clocked and seeded, so a
    scenario run twice with the same seed must produce bit-identical
    outcomes.  [check ~run ()] executes the closure twice and diffs the
    canonical fingerprints it returns; a non-empty diff is a determinism
    bug (unseeded randomness, wall-clock leakage, hash-order dependence)
    and names the first diverging fact. *)

val fingerprint : ?sim:Repro_sim.Engine.t -> Replica.t list -> string list
(** A canonical line-per-fact encoding of the replicas' protocol state
    (engine state, green order and floor, red set and cut, white line,
    primary component, database digest), sorted by node id.  [sim]
    prepends the virtual clock. *)

val diff : string list -> string list -> string list
(** Line-by-line comparison of two fingerprints; empty means equal. *)

val check : run:(unit -> string list) -> unit -> string list
(** [check ~run ()] runs the scenario twice (the closure must build a
    fresh simulation each time and return its fingerprint) and returns
    the diff — [[]] iff the runs were identical. *)
