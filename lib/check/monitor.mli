open Repro_net
open Repro_core

(** The online protocol invariant monitor ("repcheck").

    Attach one monitor to a scenario's replicas and it evaluates the
    invariant catalogue for the whole run:

    - {b event-driven}: every engine's input and audit streams
      ({!Engine.set_audit}) feed the Figure 4 spec oracle ({!Spec}) the
      moment they happen — illegal state edges, quorum decisions that
      differ from dynamic linear voting with vulnerable members excluded,
      and installs that are unjustified or repeat a [prim_index] with a
      different component (the paper's §4 exclusivity argument);
    - {b sweeps}: after every audited decision the monitor schedules a
      zero-delay simulation event and, once the triggering event has
      settled, snapshots all ready replicas and runs {!Snapshot.sweep}
      (total order, FIFO, primary exclusivity, coherence, and color
      monotonicity against the previous sweep).

    The monitor is purely observational: it sends no messages and
    mutates no replica, and its zero-delay events do not reorder the
    scenario's own same-time events (the simulator is FIFO within a
    time point), so a monitored run behaves identically to an
    unmonitored one. *)

type t

type entry = Repro_sim.Time.t * Node_id.t * Engine.audit_event

type record = {
  r_at : Repro_sim.Time.t;
  r_violation : Snapshot.violation;
  r_window : entry list;
      (** the last 40 audit events at the time of the violation, oldest
          first — the context a report pretty-prints *)
}

val create : sim:Repro_sim.Engine.t -> replicas:(unit -> Replica.t list) -> t
(** [create ~sim ~replicas] attaches to every replica currently returned
    by [replicas]; {!check_now} re-scans for newcomers (joiners). *)

val check_now : t -> unit
(** Forces a sweep immediately (use at quiescence, after [Sim.Engine.run]
    returns — there is no further event for the monitor to piggyback
    on). *)

val ok : t -> bool
val violations : t -> Snapshot.violation list
val records : t -> record list
(** Oldest first. *)

val observations : t -> int
(** Number of sweeps performed (for "the monitor actually ran"
    assertions). *)

val recent : t -> entry list
(** The last 40 audit events, oldest first. *)

val report : t -> Format.formatter -> unit
(** Pretty-prints every violation with its audit window, or a one-line
    all-clear. *)

val assert_ok : t -> unit
(** Raises [Failure] with the rendered {!report} if any violation was
    recorded. *)
