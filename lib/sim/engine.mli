(** The discrete-event simulation engine.

    A single-threaded scheduler: events are closures executed at a virtual
    time point.  Events scheduled for the same time fire in scheduling
    order (FIFO tie-break), which keeps runs fully deterministic. *)

type t

type timer
(** A handle to a scheduled event, usable to cancel it. *)

type choice = { c_at : Time.t; c_seq : int; c_label : string }
(** One event due at the earliest pending time, as presented to a
    controlled scheduler: its due time, scheduling sequence number, and
    the label given at [schedule] time (empty if none). *)

type scheduler =
  | Fifo  (** scheduling order breaks same-time ties (the default) *)
  | Controlled of (choice list -> int)
      (** when two or more events are due at the same earliest time, the
          callback picks which fires next (an index into the list, which
          is in scheduling order; out-of-range falls back to 0).  Lists
          of length one never reach the callback. *)

val create : ?seed:int -> unit -> t
(** A fresh simulation with its clock at {!Time.zero}.  [seed] (default 1)
    seeds the root RNG from which component streams should be [split]. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The root random stream of this simulation. *)

val set_scheduler : t -> scheduler -> unit
(** Replaces the same-time tie-break policy.  [Fifo] preserves the
    historical deterministic behaviour; [Controlled] turns same-instant
    concurrency into explicit choice points for a model checker. *)

val schedule : ?label:string -> t -> delay:Time.t -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at [now t + delay].  [label] is shown
    to a [Controlled] scheduler (and in traces); it has no effect on
    execution order. *)

val schedule_at : ?label:string -> t -> at:Time.t -> (unit -> unit) -> timer
(** [schedule_at t ~at f] runs [f] at absolute time [at]; [at] must not be
    in the past. *)

val make_timer : (unit -> unit) -> timer
(** A timer that is not scheduled yet: {!schedule_timer} queues it.
    Unlike the one-shot timers of [schedule], it can be queued again and
    again, and be pending several times at once; each pending instance
    runs the action once, at its own due time and in its own scheduling
    order.  A component that fires the same action per message (a
    network channel, a CPU) makes one and so schedules without
    allocating.  {!cancel} drops every pending instance. *)

val schedule_timer : t -> timer -> at:Time.t -> unit
(** [schedule_timer t timer ~at] queues one more instance of [timer] at
    absolute time [at], which must not be in the past.  It takes the
    same place in the event order as [schedule_at] called at this point. *)

val cancel : timer -> unit
(** Cancelling an already-fired or cancelled timer is a no-op. *)

val is_active : timer -> bool

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    reaped). *)

val run : ?until:Time.t -> t -> unit
(** Executes events in time order until the queue is empty, or until the
    clock would pass [until] (events at exactly [until] are executed).
    When stopped by [until], the clock is advanced to [until]. *)

val step : t -> bool
(** Executes the single next event. Returns [false] if the queue was
    empty. *)

val drain : ?max_steps:int -> t -> int
(** Executes events until the queue is completely empty, returning how
    many were executed.  Raises [Invalid_argument] if the queue has not
    quiesced after [max_steps] (default one million) events — the guard
    against a self-rescheduling timer that would never terminate. *)

val events_executed : t -> int
(** Total events executed since creation (monotonic). *)

val fingerprint : t -> string
(** A short textual digest of the scheduler state (clock, sequence
    counter, queue depth, events executed) for state hashing. *)

exception Stopped

val stop : t -> unit
(** Makes the current [run] return after the current event completes. *)
