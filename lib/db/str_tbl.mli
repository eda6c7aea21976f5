(** Hash tables keyed by strings, with [String.equal] for equality and
    [Hashtbl.hash] for hashing, for the stored-procedure registry: the
    same buckets as a polymorphic [Hashtbl] over strings, without the
    polymorphic comparison on every probe. *)

include Hashtbl.S with type key = string
