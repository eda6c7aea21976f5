(** Applies an action to a database at its place in the global order.

    Execution is deterministic: the outcome depends only on the database
    state and the action, so replicas applying the same actions in the
    same order produce the same states and the same responses (the state
    machine approach; paper §1).  [Join]/[Leave] system actions do not
    touch the data. *)

type procedure_trace = {
  t_proc : string;  (** procedure name *)
  t_args : Value.t list;
  t_reads : string list;  (** keys looked up by the body, sorted *)
  t_writes : string list;  (** keys written by the emitted ops, sorted *)
}

val execute :
  ?on_procedure:(procedure_trace -> unit) ->
  procs:Procedure.registry ->
  Database.t ->
  Action.t ->
  Action.response
(** Mutates the database per the action's update part and returns the
    client-visible response.  Active transactions resolve their
    procedure in [procs] — the executing engine's own registry — and
    return [Aborted] when the name is unknown; when [?on_procedure] is
    given, each executed procedure's actual key accesses are observed
    (via [Database.set_trace] for reads, the emitted ops for writes) and
    reported to the hook before the updates apply.  Interactive actions
    validate their [expected] reads first and return [Aborted]
    (applying nothing) on mismatch — every replica aborts or none
    does. *)
