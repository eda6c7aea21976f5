(** Update operations — the write half of an action.

    [Add] is commutative and [Set_if_newer] is timestamp-guarded; these
    two support the relaxed update semantics of the paper's Section 6
    (inventory-style and location-tracking-style applications): applying
    them in different interleavings converges to the same state.  That
    rests on the key-class separation [Database.apply] enforces: a key
    is either a counter key (written by [Add], timestamp 0) or a
    timestamped register key (written by [Set_if_newer]); an [Add] to a
    register key is dropped, and equal-timestamp [Set_if_newer] races
    resolve by value order.  So ops on distinct keys always commute, and
    ops on one key commute when both are [Add] or [Set_if_newer] — the
    pairwise law a property test in [test_db] checks. *)

type t =
  | Set of string * Value.t
  | Add of string * int  (** numeric increment; missing key counts as 0 *)
  | Remove of string
  | Set_if_newer of string * Value.t * int
      (** write wins only if its timestamp exceeds the stored one *)

val key : t -> string
(** The database key the op writes. *)

val pp : Format.formatter -> t -> unit
