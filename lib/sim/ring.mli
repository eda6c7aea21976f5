(** A growable FIFO over a circular array.

    Unlike [Stdlib.Queue], which allocates a cell per [add] and an option
    per [take_opt], [push] and [pop] allocate nothing once the buffer has
    grown to the FIFO's high-water mark: the simulator's per-message
    queues (messages in flight on a channel, jobs waiting for a CPU) are
    rings.  Free slots are filled with the first element ever pushed,
    which therefore stays reachable for the ring's lifetime; no other
    popped element does. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Appends at the back. *)

val pop : 'a t -> 'a
(** Removes and returns the front element.  Raises [Invalid_argument]
    when empty. *)

val clear : 'a t -> unit
(** Drops every element and the buffer holding them. *)
