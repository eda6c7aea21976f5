(** The discrete-event simulation engine.

    A single-threaded scheduler: events are closures executed at a virtual
    time point.  Events scheduled for the same time fire in scheduling
    order (FIFO tie-break), which keeps runs fully deterministic.  An
    event is its closure: a component that fires the same action again
    and again (a network channel, a CPU, a protocol timer) keeps one
    closure and passes it to {!schedule_at} each time, so it schedules
    without allocating; the same closure may be pending several times at
    once, each instance firing once at its own due time and in its own
    scheduling order.

    The queue is a timing wheel of 1 µs slots for events due within
    1,024 µs of the last event fired, each slot a FIFO, so scheduling
    and stepping are O(1) there; an event due later waits in a
    {!Heap} of far events and moves into its slot as the clock comes
    within range.  Scheduling and stepping allocate nothing once the
    queue has grown to its high-water mark, and a fired closure is not
    kept. *)

type t

val create : ?seed:int -> unit -> t
(** A fresh simulation with its clock at {!Time.zero}.  [seed] (default 1)
    seeds the root RNG from which component streams should be [split]. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The root random stream of this simulation. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule_at t ~at f] runs [f] at absolute time [at]; raises
    [Invalid_argument] if [at] is in the past. *)

val pending : t -> int
(** Number of events still queued. *)

val run : ?until:Time.t -> t -> unit
(** Executes events in time order until the queue is empty, or until the
    clock would pass [until] (events at exactly [until] are executed).
    When [until] is given, the clock ends at [until]. *)

val step : t -> bool
(** Executes the single next event. Returns [false] if the queue was
    empty. *)

val drain : ?max_steps:int -> t -> int
(** Executes events until the queue is completely empty, returning how
    many were executed.  Raises [Invalid_argument] if the queue has not
    quiesced after [max_steps] (default one million) events — the guard
    against a self-rescheduling event that would never terminate. *)

val events_executed : t -> int
(** Total events executed since creation (monotonic). *)
