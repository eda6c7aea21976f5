(** Node (server) identifiers.

    Integers wrapped for documentation; ordering is total and is used by
    higher layers (the group-communication coordinator is the minimal
    member of a view). *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by node, hashed by {!hash} (the id itself): no
    polymorphic hash or compare per lookup. *)

val set_of_list : t list -> Set.t
val set_to_string : Set.t -> string
(** [{n0,n1}], in id order. *)

val pp_set : Format.formatter -> Set.t -> unit
