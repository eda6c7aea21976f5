open Repro_net


(** ComputeKnowledge (paper CodeSegment A.7) plus the retransmission
    planning derived from the same state messages.

    A pure function of the set of state messages, so every member of the
    view computes identical knowledge. *)

type t = {
  k_prim : Types.prim_component;
      (** maximal (prim_index, attempt) among the state messages *)
  k_attempt : int;  (** max attempt index within the updated group *)
  k_yellow : Types.yellow;
      (** valid iff some updated server had valid yellow; the set is the
          intersection of valid yellow sets (order preserved) *)
  k_vulnerable : Types.vulnerable Node_id.Map.t;
      (** every member's vulnerable record after the invalidation steps *)
  k_green_target : int;  (** max green count among members *)
  k_green_plan : (Node_id.t * int * int) list;
      (** chain of green retransmission duties [(source, from_exclusive,
          to_inclusive)] covering positions (min green, max green]: at
          each point the source reaching furthest whose stored bodies go
          low enough (green floor), lowest id among equals.  May end
          short of the target if no member holds the bodies (the gap
          then requires a state transfer). *)
  k_green_from : int;  (** min green count among members *)
  k_red_targets : int Node_id.Map.t;
      (** per creator: max red-cut among members *)
}

val compute :
  members:Node_id.Set.t -> Types.state_msg Node_id.Map.t -> t
(** Requires a state message from every member. *)

val red_duties :
  self:Node_id.t ->
  knowledge:t ->
  states:Types.state_msg Node_id.Map.t ->
  (Node_id.t * int * int) list
(** The per-creator index ranges [(creator, from_exclusive, to_inclusive)]
    that [self] must retransmit as red: for each creator, the member with
    the maximal red cut (lowest id among equals) covers the span from the
    minimal red cut to the maximal. *)

val stranded :
  green_count:int -> t -> Types.state_msg Node_id.Map.t -> bool
(** Whether a member at [green_count] is below the target with no
    state message offering the bodies just above it (no member [m] with
    [m.floor <= green_count < m.count]): the actions were white and
    discarded everywhere, so only a state transfer can catch it up.  One
    scan over the state messages. *)

val exchange_finished :
  green_count:int -> red_cut:(Node_id.t -> int) -> t -> bool
(** Whether this server has reached the retransmission targets. *)
