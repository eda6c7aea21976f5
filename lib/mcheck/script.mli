open Repro_net

(** Deterministic event scripts: the unit of scheduling the model
    checker branches on, and the replayable counterexample format
    (one transition per line; ['#'] lines are comments). *)

type transition =
  | T_deliver of Node_id.t
      (** deliver the node's next endpoint event, coalescing view-change
          fallout (leftovers, transitional/regular notices) *)
  | T_submit of Node_id.t  (** one client update at the node *)
  | T_crash of Node_id.t
  | T_recover of Node_id.t
  | T_partition of Node_id.t list list  (** install these components *)
  | T_merge  (** heal the network *)

val is_deliver : transition -> bool
val equal : transition -> transition -> bool
val pp : Format.formatter -> transition -> unit
val to_string : transition list -> string

val of_string : string -> transition list
(** Ignores blank and ['#'] lines; raises [Invalid_argument] on a
    malformed transition line. *)
