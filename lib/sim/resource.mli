(** A serial resource: jobs execute one at a time, FIFO.

    Models a CPU core or any sequential device.  Each job occupies the
    resource for a duration, then its completion callback fires.  Used to
    model per-action processing cost, which caps throughput when disk
    writes are taken off the critical path. *)

type t

val create : Engine.t -> t

val submit : t -> duration:Time.t -> (unit -> unit) -> unit
(** [submit t ~duration k] queues a job; [k] runs when the job finishes
    (after all previously queued jobs). *)

val queue_length : t -> int
(** Jobs waiting or running. *)

val busy_time : t -> Time.t
(** Cumulative time the resource has spent occupied. *)

val reset : t -> unit
(** Drops all queued jobs and the running one (their callbacks never
    fire) — crash semantics — then runs the {!on_reset} hooks. *)

val on_reset : t -> (unit -> unit) -> unit
(** [on_reset t f] runs [f] on every later {!reset}, after the jobs are
    dropped, in registration order.  A client that keeps its own FIFO of
    per-job state beside the resource's queue (a network's messages
    waiting for this CPU) clears it here. *)
