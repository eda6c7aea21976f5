(* Runtime validation of declared procedure footprints (paper §6; see
   lib/analysis/procfoot.ml for the static side).

   The static pass certifies, per procedure, a symbolic key-space
   footprint; [Procedure.register ?footprint] lets the author declare
   one; the drift lint diffs the two.  This module closes the loop at
   run time: attached to a replica, it observes every executed
   procedure's *actual* key accesses (the [Executor.procedure_trace]
   hook) and asserts they stay inside the declaration —

     actual reads  ⊆ declared reads ∪ declared writes
     actual writes ⊆ declared writes

   (a write pattern licenses the read-back of the same key: every
   read-modify-write procedure reads what it writes).  Procedures with
   no declared footprint are skipped — the guard checks declarations,
   it does not invent them.

   A violation means the declaration, and with it the footprint the
   procedure manifest certifies, is wrong for a reachable execution:
   the guard records it as a [procedure-footprint] violation of the
   executing node, which [World.verdict] reports. *)

open Repro_db

type t = {
  mutable violations : Snapshot.violation list;  (* newest first *)
  mutable observed : int;
  mutable checked : int;
}

let create () = { violations = []; observed = 0; checked = 0 }

let observe g ~node procs (tr : Executor.procedure_trace) =
  g.observed <- g.observed + 1;
  match Procedure.declared_footprint procs tr.Executor.t_proc with
  | None -> ()
  | Some fp ->
    g.checked <- g.checked + 1;
    let flag verb key =
      g.violations <-
        Snapshot.violation ~node "procedure-footprint"
          "procedure %S %s key %S outside its declared footprint (args: %s)"
          tr.Executor.t_proc verb key
          (String.concat ", " (List.map Value.to_string tr.Executor.t_args))
        :: g.violations
    in
    let readable = fp.Procedure.reads @ fp.Procedure.writes in
    List.iter
      (fun key ->
        if not (Procedure.covers tr.Executor.t_args readable key) then
          flag "read" key)
      tr.Executor.t_reads;
    List.iter
      (fun key ->
        if not (Procedure.covers tr.Executor.t_args fp.Procedure.writes key)
        then flag "wrote" key)
      tr.Executor.t_writes

let attach g replica =
  Repro_core.Replica.set_procedure_hook replica (fun tr ->
      observe g ~node:(Repro_core.Replica.node replica)
        (Repro_core.Replica.procedures replica)
        tr)

let violations g = List.rev g.violations
let observed g = g.observed
let checked g = g.checked
