open Repro_net

(** Configuration (view) identifiers.

    A configuration id is the pair of the proposing coordinator and a
    counter the coordinator guarantees monotonic (seeded from virtual
    time so that identifiers stay unique across coordinator crashes and
    recoveries, as a real implementation would use timestamps). *)

type t = { coord : Node_id.t; counter : int }

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
