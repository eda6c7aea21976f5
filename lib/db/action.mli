open Repro_net

(** Actions: the unit of replication (paper §2.2).

    An action is a deterministic state transition with a query part and
    an update part, either possibly missing.  Client transactions are
    translated into actions; the replication engine builds one global
    persistent total order of actions and applies them in it. *)

module Id : sig
  type t = { server : Node_id.t; index : int }
  (** Stamped by the creating server: its id and a per-server
      monotonically increasing index (FIFO per creator). *)

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val hash : t -> int
  (** Allocation-free; consistent with {!equal}. *)

  val to_string : t -> string
  (** [n0#3]: creator and index. *)

  val pp : Format.formatter -> t -> unit

  (** Hash tables keyed by action id.  Bucket order follows {!hash}, so
      a table whose iteration order could reach replicated state must
      not be iterated; none in the engine is. *)
  module Tbl : Hashtbl.S with type key = t
end

(** What happens when the action reaches its place in the global order. *)
type kind =
  | Query of string list  (** read-only; returns the values *)
  | Update of Op.t list  (** write-only *)
  | Read_write of string list * Op.t list  (** both parts *)
  | Active of { proc : string; args : Value.t list }
      (** invoke a deterministic stored procedure at ordering time *)
  | Interactive of {
      expected : (string * Value.t option) list;
          (** values the client read in its first action *)
      updates : Op.t list;
    }
      (** the second half of an interactive transaction: applied only if
          the previously read values still hold, otherwise "aborted" *)
  | Join of Node_id.t  (** PERSISTENT_JOIN of a new replica (§5.1) *)
  | Leave of Node_id.t  (** PERSISTENT_LEAVE of a replica (§5.1) *)

(** How eagerly the client is answered (paper §6). *)
type semantics =
  | Strict  (** answered when the action turns green (1-copy serializable) *)
  | Commutative
      (** updates commute: answered on local (red) application; states
          converge on merge *)

type t = {
  id : Id.t;
  client : int;  (** issuing client (0 for system actions) *)
  kind : kind;
  semantics : semantics;
  green_count : int;
      (** the creator's green count at creation time.  The action is
          multicast only after the force covering its creation, so the
          count is durable at the creator when any peer sees it: a peer
          that greens the action learns that the creator has at least
          this many greens (the white line of paper Figure 1). *)
  size : int;  (** wire size in bytes (the paper uses 200-byte actions) *)
  req_seq : int;
      (** durable per-client request sequence number, [> 0] when the
          client wants exactly-once semantics across retries; 0 opts
          out of deduplication.  The pair [(client, req_seq)] is the
          request id: a retry carries the same pair, and the green
          apply path suppresses re-execution of an already-applied
          sequence number, answering from the dedup cache instead. *)
  req_ack : int;
      (** the client-acked low-water mark: the highest [req_seq] for
          which this client has already received a response.  Bounds
          the replicated dedup cache — responses at or below it can
          never be re-requested and are evicted. *)
}

val make :
  ?client:int ->
  ?semantics:semantics ->
  ?green_count:int ->
  ?size:int ->
  ?req_seq:int ->
  ?req_ack:int ->
  server:Node_id.t ->
  index:int ->
  kind ->
  t
(** [size] defaults to 200 bytes; [green_count], [req_seq] and
    [req_ack] default to 0 (no exactly-once tracking). *)

(** The outcome reported to the client. *)
type response =
  | Committed of (string * Value.t option) list
      (** query results (empty for pure updates) *)
  | Procedure_output of Value.t
  | Aborted  (** interactive validation failed *)
  | Busy
      (** admission control shed the request before it entered the
          global order: nothing was executed or logged.  The client
          should back off and retry. *)

val to_string : t -> string
(** [id:kind], the kind summarised: an update prints its op count, not
    its ops; the client, semantics, size and request sequence are left
    out. *)

val pp : Format.formatter -> t -> unit
val pp_response : Format.formatter -> response -> unit
