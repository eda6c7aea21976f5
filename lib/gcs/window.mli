(** A map from integer keys that arrive nearly contiguously — sequence
    numbers — to values.

    The live range is a ring of slots indexed by the key itself, so
    [replace], [find], [mem] and [remove] inside it allocate nothing
    once the ring has grown to the range's widest span.  The range
    starts just above the window's {e base}.  A key at or below the
    base (a late retransmission of an evicted sequence number, a resend
    of a message that was already ordered) is kept in a side map, so
    the window behaves as a map for every key: only the cost differs.
    Free slots hold the first value ever stored, which therefore stays
    reachable for the window's lifetime; no other removed value does. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Number of keys held, in the ring and below it. *)

val base : 'a t -> int
(** The ring covers the keys above this one. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** Raises [Not_found] for a key the window does not hold. *)

val replace : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit
(** A removal moves the base up over the empty slots just above it, as
    far as the highest key the ring has held: the ring follows a range
    that is consumed from its low end, even when keys in it were never
    stored. *)

val slide : 'a t -> int -> unit
(** [slide t n] drops every ring key at or below [n] and moves the base
    to [n] (no-op when [n] is at or below the base).  Keys already
    below the base stay. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Visits every key in ascending order. *)
