open Repro_db

(** Replicated per-client exactly-once state (the dedup window).

    Maps each client to the highest request sequence number applied so
    far plus a bounded cache of recent responses.  Consulted and
    mutated only on the green apply path — live application, recovery
    replay, and snapshot install all go through the same code — so at a
    given green position every replica holds an identical table, and it
    can ride {!Persist} checkpoints and §5.1 state-transfer snapshots
    unchanged.

    The client contract that makes [seq <= highest] the correct
    duplicate test: sequence numbers are issued FIFO with one
    outstanding request, and a client only advances after a response.
    Stale copies of an old request may green-commit {e after} later
    sequence numbers (partition float), which is why contiguity is not
    assumed. *)

type t

type verdict =
  | Fresh  (** first time this (client, seq) reaches the green order *)
  | Duplicate of Action.response option
      (** already applied; the cached response if still within the
          window, [None] if the client's ack low-water evicted it *)

val create : window:int -> unit -> t
(** [window] bounds the per-client cached-response list (clamped to at
    least 1). *)

val check : t -> client:int -> seq:int -> verdict
(** Read-only duplicate test.  [seq <= 0] is always [Fresh] (the
    request opted out of exactly-once tracking). *)

val is_applied : t -> client:int -> seq:int -> bool

val record : t -> client:int -> seq:int -> ack:int -> Action.response -> unit
(** Book one freshly executed request: advances the high-water mark,
    caches the response, folds in the client's ack and prunes the cache
    to the window.  No-op when [seq <= 0].  Only for a request {!check}
    answers [Fresh]: raises [Invalid_argument] for [seq] at or below
    the client's high-water mark.  Allocates nothing once the client's
    cache has grown to its high-water size. *)

val observe_ack : t -> client:int -> ack:int -> unit
(** Fold in the ack low-water carried by a request that turned out to
    be a duplicate (it still proves what the client has seen). *)

val max_cached : t -> int
(** Largest per-client cached-response list — the quantity the bounded-
    window property test asserts never exceeds the window. *)

(** {2 Snapshots} — pure data, deterministically ordered. *)

type client_state = {
  s_client : int;
  s_hi : int;
  s_ack : int;
  s_cache : (int * Action.response) list;
}

type snapshot = { s_window : int; s_clients : client_state list }

val snapshot : t -> snapshot
val of_snapshot : snapshot -> t

val summary : t -> (int * int * int) list
(** [(client, highest applied seq, acked)] triples in client order —
    what the cross-replica convergence check compares. *)
