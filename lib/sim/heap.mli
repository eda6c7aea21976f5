(** A min-heap ordered by two immediate-int keys (primary, tiebreak):
    the simulator's queue of far events, those due beyond the timing
    wheel's span (see {!Engine}).  Comparisons are inline int compares
    (no closure call, no boxing) and [pop] returns the payload directly
    (no option cell), so the event loop allocates nothing per event.
    Sifting moves one hole through three int arrays (key, tiebreak,
    payload slot) while the payload stays in its slot, so a level costs
    three int writes and no write barrier; [push] and [pop] are
    O(log n).  Free slots hold the filler given to {!create}, so no
    popped payload stays reachable from the heap. *)
type 'a t

exception Empty

val create : filler:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> key:int -> tie:int -> 'a -> unit

val min_key : 'a t -> int
(** Primary key of the smallest element; raises {!Empty}. *)

val pop : 'a t -> 'a
(** Removes and returns the smallest payload; raises {!Empty}. *)
