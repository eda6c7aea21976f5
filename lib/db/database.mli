(** The deterministic in-memory database each replica maintains.

    A string-keyed value store: one open-addressing table in flat arrays
    per version tree, with versions kept by rerooting (Baker's trick).
    Timestamps for [Set_if_newer] are stored alongside values.  Costs,
    for [n] keys, on a live handle unless said otherwise:

    - [get], [timestamp] and [apply]: one probe per key or op, O(1)
      expected; [get] allocates only its option, a write one undo entry
      (5 words, 3 for an absent key) the first time after a capture;
    - [size]: O(1); [snapshot] and [copy]: O(1), a capture;
    - reading another version of the tree (a snapshot, a copy that
      wrote, or the handle after either): O(undo entries on the path);
    - [of_snapshot] and [restore]: O(n) array copies;
    - [digest], [bindings] and [snapshot_size]: as a read, plus O(n).

    Memory: 4 words per slot, at most 7/8 of the slots in use (from 4.6
    words per key); 9 words per capture, and a retained snapshot keeps
    at most one old binding per key per later capture. *)

type t

type snapshot
(** An immutable version of the full database state. *)

val create : unit -> t
val get : t -> string -> Value.t option
val timestamp : t -> string -> int
(** Stored timestamp for a key (0 if never written with a timestamp). *)

val set_trace : t -> (string -> unit) option -> unit
(** Installs (or clears) a key-read observer called by [get]/
    [timestamp]/[read] with each looked-up key.  Used by the runtime
    footprint validator to capture a procedure's actual read set; not
    copied by [copy]/[of_snapshot]. *)

val apply : t -> Op.t list -> unit
(** Applies updates in order. *)

val read : t -> string list -> (string * Value.t option) list
val size : t -> int
val version : t -> int
(** Number of [apply] calls so far. *)

val digest : t -> int
(** Order-insensitive content hash; equal digests on equal states.  Used
    by consistency checkers to compare replicas cheaply. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val of_snapshot : snapshot -> t
val copy : t -> t
val snapshot_size : snapshot -> int
(** Approximate serialized size in bytes, for transfer-time modelling. *)

val bindings : t -> (string * Value.t) list
(** All key/value pairs in key order. *)
