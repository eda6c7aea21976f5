(** A min-heap ordered by two immediate-int keys (primary, tiebreak),
    payload alongside: comparisons are inline int compares (no closure
    call, no boxing) and [pop] returns the payload directly (no option
    cell), so the simulation event loop allocates nothing per event on
    its fast path. *)
module Keyed : sig
  type 'a t

  exception Empty

  val create : unit -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val push : 'a t -> key:int -> tie:int -> 'a -> unit

  val min_key : 'a t -> int
  (** Primary key of the smallest element; raises {!Empty}. *)

  val min_tie : 'a t -> int
  (** Tiebreak key of the smallest element; raises {!Empty}. *)

  val peek : 'a t -> 'a
  (** Smallest payload without removing it; raises {!Empty}. *)

  val pop : 'a t -> 'a
  (** Removes and returns the smallest payload; raises {!Empty}. *)

  val clear : 'a t -> unit
end
