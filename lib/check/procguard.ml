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

   A violation means the declaration (and hence the §6 commutativity /
   validation-skipping reasoning built on it) is wrong for a reachable
   execution: the guard records it, and [World.verdict] reports each
   finding as a [procedure-footprint] violation. *)

open Repro_db

type kind = Read | Write

type violation = {
  v_node : Repro_net.Node_id.t;  (** the replica that executed it *)
  v_proc : string;  (** procedure name *)
  v_kind : kind;
  v_key : string;  (** the key outside the declared footprint *)
  v_args : Value.t list;  (** arguments of the offending invocation *)
}

type t = {
  mutable violations : violation list;  (* newest first *)
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
    let flag kind key =
      g.violations <-
        { v_node = node; v_proc = tr.Executor.t_proc; v_kind = kind;
          v_key = key; v_args = tr.Executor.t_args }
        :: g.violations
    in
    let readable = fp.Procedure.reads @ fp.Procedure.writes in
    List.iter
      (fun key ->
        if not (Procedure.covers tr.Executor.t_args readable key) then
          flag Read key)
      tr.Executor.t_reads;
    List.iter
      (fun key ->
        if not (Procedure.covers tr.Executor.t_args fp.Procedure.writes key)
        then flag Write key)
      tr.Executor.t_writes

let attach g replica =
  Repro_core.Replica.set_procedure_hook replica (fun tr ->
      observe g ~node:(Repro_core.Replica.node replica)
        (Repro_core.Replica.procedures replica)
        tr)

let violations g = List.rev g.violations
let observed g = g.observed
let checked g = g.checked

let pp_violation ppf v =
  Format.fprintf ppf "procedure %S %s key %S outside its declared footprint (args: %s)"
    v.v_proc
    (match v.v_kind with Read -> "read" | Write -> "wrote")
    v.v_key
    (String.concat ", " (List.map Value.to_string v.v_args))
