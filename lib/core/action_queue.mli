open Repro_net
open Repro_db

(** The ordered action queue (paper's [actionsQueue]).

    Holds the global green prefix (positions 1..green_count) followed by
    the red actions in local delivery order.  Yellow actions live in the
    red region; their ids are tracked by the engine's [yellow] record.
    Greenness is a per-creator cut, not a per-id index: greens are FIFO
    per creator, so an id is green iff its index is at or below its
    creator's cut.  Bodies of white actions (green at every known
    server) are discarded at checkpoints ({!discard_below}); positions
    at or below the resulting floor have no body, and state messages
    advertise the floor so the green retransmission plan only asks a
    replica for bodies it still holds. *)

type t

val create : unit -> t

val green_count : t -> int
val green_line : t -> Action.Id.t option
val nth_green : t -> int -> Action.t
(** 1-based; raises [Invalid_argument] out of range or below the floor. *)

val greens_from : t -> int -> Action.t list
(** [greens_from t n] are the green actions at positions [n+1..count]. *)

val green_floor : t -> int
(** Positions [<= floor] have no stored body (inherited by snapshot). *)

val set_join_floor :
  t -> count:int -> line:Action.Id.t option -> cut:int Node_id.Map.t -> unit
(** Initialise a snapshot-created queue: green prefix of [count] virtual
    actions ending at [line], with no bodies, whose per-creator green
    cut is [cut]. *)

val green_cut_map : t -> int Node_id.Map.t
(** The whole per-creator green cut. *)

val discard_below : t -> int -> int
(** [discard_below t n] frees the stored bodies of green positions
    [<= n] (white actions: known green at every server, paper Figure 1)
    and raises the floor accordingly.  Only the bodies go: greenness is
    the per-creator cut, which discarding leaves alone.  Returns the
    number of bodies discarded.  No-op when [n <= floor]. *)

val append_green : t -> Action.t -> int
(** Appends at the top of the green prefix (removing the action from the
    red region if present), advances its creator's green cut, and
    returns its green position.  Raises [Invalid_argument] on an action
    that is already green. *)

val is_green : t -> Action.Id.t -> bool
(** [id.index] is at or below its creator's green cut: also true for
    ids greened below a snapshot join floor, which this queue never
    held. *)

val add_red : t -> Action.t -> unit
val red_actions : t -> Action.t list
(** Red actions in local order (excludes greens). *)

val red_count : t -> int
val find : t -> Action.Id.t -> Action.t option
(** The body of a red action; [None] for a green one (its body is
    reached by position, {!nth_green}) and for an unknown one. *)
