open Repro_net
open Repro_storage
open Repro_db

(** The replication engine's stable storage.

    A typed write-ahead log over a simulated {!Disk}.  Appends are
    buffered; [sync] marks the paper's "** sync to disk" points
    (group-committed with concurrent syncs on the same disk — this is
    the engine's single forced write per action).  Red and green marks
    are appended without forcing: their durability is covered by the
    vulnerability mechanism, which is exactly the gap the paper's
    [vulnerable] record exists to close.

    Recovery replays the durable prefix into the full engine state:
    per-creator red cuts, the green prefix (in green order), the
    remaining red actions (in arrival order), the ongoing queue of own
    actions not yet delivered, and the last meta record. *)

type t

val create : engine:Repro_sim.Engine.t -> disk:Disk.t -> unit -> t
val disk : t -> Disk.t

val log_meta : t -> Types.meta -> unit

val log_ongoing_batch : t -> Action.t list -> unit
(** Client actions created at this server (its [ongoingQueue]) as
    {e one} log frame: one device write and one covering [sync] make
    every record in it durable together, and a crash loses or keeps the
    batch as a unit (frame-granular torn tail).  The empty batch writes
    nothing. *)

val mint_own :
  self:Node_id.t ->
  body:(int -> Action.t option) ->
  own_cut:int ->
  floor:int ->
  Action.t list
(** The own actions with indexes [own_cut + 1 .. floor], in index order,
    that a restarting server re-proposes: the body [body] still holds
    for an index, else a no-op filler (client 0, 32 bytes, an empty
    update).  Per-creator delivery is gap-free, so peers can pass an
    index only once some action holds it.  Salvage recovery and an
    amnesiac rejoiner both mint them. *)

val log_red_batch : t -> Action.t list -> unit
val log_green_batch : t -> Action.Id.t list -> unit
(** One frame for a delivery burst's red (resp. green) marks (group
    commit: marks are appended without forcing). *)

val log_red_marks : t -> Action.t array -> unit
val log_green_marks : t -> Action.t array -> unit
(** The same frames, holding the given array itself: a red record per
    action, or a green record per action's id.  The caller must not
    modify the array afterwards; the engine hands the same green array
    to [on_green].  An empty array writes nothing. *)

(** A durable summary of everything up to a green position: the database
    snapshot at that point, the green line, and the per-creator green
    cuts.  It is the one description of a replica's starting state:
    written periodically as a checkpoint (log entries it covers can then
    be compacted away), shipped by a sponsor to a joiner (paper §5.1,
    CodeSegment 5.2), which logs it as its first checkpoint, and
    restored by recovery. *)
type checkpoint = {
  c_snapshot : Database.snapshot;
  c_green_count : int;
  c_green_line : Action.Id.t option;
  c_green_cut : int Node_id.Map.t;
  c_meta : Types.meta;
  c_dedup : Dedup.snapshot;
      (** the per-client exactly-once window at the same green position
          as [c_snapshot] — restored alongside it so recovery and
          §5.1 joiners never re-execute an already-applied request *)
}

val log_checkpoint : t -> checkpoint -> unit

(** The log's frame kinds.  A frame is one device write, one checksum
    and one sequence number.  The action frames hold the array they
    were logged from, a record per action, with no box per record; the
    meta and checkpoint frames hold one record each. *)
type frame =
  | Ongoing of Action.t array
  | Red of Action.t array
  | Green of Action.t array
      (** read for the actions' ids only: a green mark names an action
          whose body an earlier red frame holds *)
  | Meta of Types.meta
  | Checkpoint of checkpoint

val find_newest : t -> (frame -> 'a option) -> 'a option
(** The first [Some] of [f] over the frames, newest first.  Reads no
    disk. *)

val compact : t -> unit
(** Drops log entries superseded by the latest checkpoint: everything
    before it except red actions not yet inside its green cuts and own
    ongoing actions.  Call after the checkpoint has been synced. *)

val sync : t -> (unit -> unit) -> unit
(** Force everything appended so far; callback when durable. *)

val crash : t -> unit

val reset : t -> unit
(** Discards the whole log: its owner re-enters by state transfer, whose
    snapshot becomes the new log's first checkpoint. *)

(** What recovery decided after verifying the log's record framing
    (paper A.13 extended with the storage fault model):

    - [V_clean]: every record verified; full state rebuilt.
    - [V_torn_tail n]: the [n] damaged records at the tail were the
      in-flight (never-synced) suffix; they were truncated and the rest
      of the state rebuilt.  Safe by the vulnerable-record argument: an
      unsynced suffix is indistinguishable from a crash just before the
      write — the paper already treats that window as lost.
    - [V_salvaged n]: interior corruption past the last checkpoint;
      the [n] records from the first damaged one on were dropped and
      the trusted prefix rebuilt.  Green/red knowledge may be
      under-claimed (safe: peers retransmit), but the newest *readable*
      meta record — even beyond the damage — is adopted, because
      under-claiming the vulnerable record would be unsafe.
    - [V_amnesia]: the damage undermines the log's foundation (its head
      record, or the freshest checkpoint lies at/after the damage): no
      prefix can be trusted.  The log was discarded; the caller must
      rejoin through the §5.1 state-transfer path under a fresh
      incarnation so no stale red/green claims leak back. *)
type verdict =
  | V_clean
  | V_torn_tail of int  (** records truncated *)
  | V_salvaged of int  (** records dropped from the first corrupt one *)
  | V_amnesia

val pp_verdict : Format.formatter -> verdict -> unit

type recovered = {
  r_meta : Types.meta option;
  r_green : Action.t list;
      (** green actions after the checkpoint, in green order *)
  r_checkpoint : checkpoint option;
      (** the latest durable checkpoint (also the state-transfer floor) *)
  r_red : Action.t list;  (** still-red actions, in arrival order *)
  r_ongoing : Action.t list;  (** own actions not yet delivered back *)
  r_red_cut : int Node_id.Map.t;
  r_action_index : int;  (** highest own action index ever created *)
  r_verdict : verdict;
  r_read_retries : int;  (** transient read errors retried *)
  r_backoff : Repro_sim.Time.t;  (** total read-retry backoff charged *)
}

val fresh : recovered
(** The record of an empty log: no meta, checkpoint or actions, verdict
    [V_clean].  A server of the initial set starts as the recovery of
    it; the amnesia verdict is it with the readable floor. *)

val recover : self:Node_id.t -> t -> recovered
(** The only sanctioned way to read the log back (the lint rule
    [no-wlog-recover-outside-persist] enforces it): verifies the
    framing, applies the verdict policy above — truncating, salvaging
    or discarding the log as a side effect — and rebuilds the state
    from whatever prefix survived. *)

val corrupt_nth : t -> int -> bool
(** Damage the log frame containing the [nth] record (0-based, append
    order) — deterministic fault injection for tests and the nemesis
    driver.  [false] when out of range. *)

val entries_logged : t -> int
(** Records currently in the log (durable or not). *)

val frames_logged : t -> int
(** Frames currently in the log; at most [entries_logged]. *)
