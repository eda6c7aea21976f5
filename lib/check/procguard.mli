(** Runtime validation of declared procedure footprints (paper §6).

    The static key-space analysis (lib/analysis/procfoot.ml) infers each
    procedure's symbolic read/write sets and the drift lint diffs them
    against the [Procedure.register ?footprint] declarations.  This
    guard closes the loop dynamically: attached to a replica, it checks
    every executed procedure's actual key accesses against the declared
    patterns — actual reads must be covered by declared reads ∪ writes
    (a write licenses the read-back of the same key), actual writes by
    declared writes.  Procedures without a declaration are counted but
    not checked. *)

type t

val create : unit -> t

val attach : t -> Repro_core.Replica.t -> unit
(** Install this guard as the replica's procedure hook
    ({!Repro_core.Replica.set_procedure_hook}): every procedure the
    replica executes — green apply, commutative red answer, dirty-read
    materialisation, recovery replay — is observed. *)

val violations : t -> Snapshot.violation list
(** Violations in observation order: each a [procedure-footprint]
    violation of the node that executed the procedure, naming the
    procedure, whether it read or wrote, the key outside the declared
    footprint and the invocation's arguments. *)

val observed : t -> int
(** Procedures executed under this guard. *)

val checked : t -> int
(** The subset of {!observed} that had a declared footprint. *)
