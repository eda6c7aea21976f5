open Repro_sim

(** A typed write-ahead log on top of a simulated {!Disk}, with frame
    framing: records are grouped into *frames*, each carrying one
    per-frame checksum and one monotonic sequence number covering all
    of its records.  Each [append] writes one frame, amortizing the
    header, the device write and (downstream) the force over every
    record it holds.

    {b Frame kinds.}  The log stores each frame's ['body] as the caller
    built it and never looks inside: the body's type is the set of
    frame kinds (the replica log's, in [Repro_core.Persist], are ongoing,
    red-mark and green-mark frames holding an action array each, and
    one-record meta and checkpoint frames), and the [records] function
    given to {!create} counts the records a body holds.  Record
    counting is all the log needs for {!length} and the record-
    addressed {!corrupt}; a frame never pays a box per record.

    Frames are appended to the device buffer immediately; [sync]
    confirms durability of everything appended so far.  On [crash],
    frames whose stamp is newer than the disk's last durable epoch are
    lost (in [Delayed] mode this can include acknowledged entries —
    the Figure 5(b) trade-off), and the disk's fault model may leave a
    *torn* in-flight frame behind or corrupt durable ones.

    [recover] verifies the framing frame by frame and returns a typed
    verdict instead of silently trusting the bytes.  Verdict positions
    are {e frame} indices — a frame's checksum is all-or-nothing, so
    damage cannot be localized below frame granularity:
    - {!Clean}: every frame checks out;
    - [Torn_tail i]: the frames from position [i] on are damaged and
      the damage starts at the in-flight (never-synced) suffix — the
      log is intact up to frame [i] and truncation is safe, because an
      unsynced suffix is indistinguishable from a crash just before
      the write;
    - [Corrupt_interior i]: frame [i] is damaged but was durable (or
      readable frames follow it) — the caller must decide between
      salvaging the trusted prefix and discarding the log. *)

type verdict =
  | Clean
  | Torn_tail of int
      (** first damaged frame position (0-based, append order) *)
  | Corrupt_interior of int  (** first damaged frame position *)

val pp_verdict : Format.formatter -> verdict -> unit

type 'body recovery = {
  rv_verdict : verdict;
  rv_trusted : 'body list;
      (** the verified frames before the first damage, oldest first *)
  rv_readable : 'body list;
      (** every frame whose checksum verifies, including frames beyond
          the first damage, oldest first — salvage material only: the
          sequence chain through them is broken *)
  rv_read_retries : int;
      (** transient read errors retried during this recovery *)
  rv_backoff : Time.t;
      (** total backoff delay charged by those retries (exponential,
          bounded by the disk's [read_retries]) *)
}

type 'body t

val create :
  engine:Engine.t -> disk:Disk.t -> records:('body -> int) -> unit -> 'body t
(** [records body] is the number of records a frame body holds. *)

val disk : 'body t -> Disk.t

val append : 'body t -> 'body -> unit
(** Buffer one frame, not yet durable: one sequence number, one
    checksum, one device write — so one covering [sync] makes all of
    its records durable together, and a crash loses or keeps them as a
    unit.  The frame keeps the body itself: the caller must not modify
    it afterwards.  A body of no records is a no-op (no frame is
    written). *)

val sync : 'body t -> (unit -> unit) -> unit
(** Make all appended frames durable; callback on completion
    (group-committed with concurrent syncs on the same disk).  In
    [Delayed] disk mode, the callback fires quickly and durability is
    *not* guaranteed. *)

val crash : 'body t -> unit
(** Applies crash semantics: the non-durable suffix is discarded —
    except that, under the disk's fault model, the oldest in-flight
    frame may survive torn (damaged as a unit) and durable frames may
    be corrupted. *)

val recover : 'body t -> 'body recovery
(** Verify and read the log, oldest first.  Valid any time; after
    [crash] it reflects the lost suffix.  Transient read errors are
    retried with exponential backoff (bounded by the disk's fault
    config); a frame still unreadable after the retry budget counts as
    damaged.  Call through [Repro_core.Persist.recover] — the lint rule
    [no-wlog-recover-outside-persist] keeps every recovery on the
    verdict-aware path. *)

type 'body read = {
  r_body : 'body;
  r_seq : int;  (** the frame's sequence number *)
  r_ok : bool;  (** its checksum verifies and it was read without error *)
  r_torn : bool;  (** it was the in-flight frame of a crash *)
}
(** One frame as {!recover} read it. *)

val judge : 'body read list -> verdict * 'body list * 'body list
(** [recover]'s decision over the frames as read, oldest first: the
    verdict, the trusted bodies and the readable bodies, in one pass.
    A frame is damaged when it is not [r_ok] or its sequence number
    does not exceed the last intact frame's. *)

val truncate_damaged : 'body t -> from:int -> unit
(** Physically truncate the log at frame position [from] (0-based,
    append order): frames [from..] are dropped.  Used after a
    [Torn_tail] (safe) or when salvaging a [Corrupt_interior] prefix. *)

val reset : 'body t -> unit
(** Discard the whole log (amnesiac recovery: the replica abandons its
    local state and will rejoin by state transfer). *)

val corrupt : 'body t -> nth:int -> bool
(** Damage the checksum of the frame containing the [nth] {e record}
    (0-based, append order); [false] when out of range.  Record-
    addressed so fault-injection sites need not know the frame
    layout; a per-frame checksum cannot fail for one record alone.
    Deterministic fault injection for tests and the nemesis driver. *)

val clean : 'body t -> bool
(** [true] exactly when [recover] would return [Clean].  Makes the same
    transient read-error draws as [recover], in the same order (every
    frame, newest first; none for a frame whose checksum already
    fails), so either call leaves the disk's fault RNG in the same
    state.  Builds no record lists. *)

val find_newest : 'body t -> ('body -> 'a option) -> 'a option
(** The first [Some] of [f] over the frames, newest first (like
    [List.find_map] on the log reversed).  Reads no disk. *)

val compact : 'body t -> keep:('body -> 'body option) -> unit
(** Replaces each frame's body with the part of it [keep] returns;
    [keep] is applied once per frame in append order (oldest first),
    so it may carry state.  Frames are kept as units (their headers
    survive so the recovery sequence chain stays intact): a frame whose
    body comes back physically unchanged is reused, and a frame mapped
    to [None] or to a body of no records is dropped.  Allocates per
    frame.  Models atomically switching to a freshly
    written log segment, so it should only be called when the retained
    entries' durability has been established (e.g. right after a
    checkpoint sync). *)

val length : 'body t -> int
(** Records currently in the log (durable or not), across all frames.
    O(1): the count is maintained through appends, [compact],
    [truncate_damaged], [crash] and [reset]. *)

val frame_count : 'body t -> int
(** Frames currently in the log.  [frame_count t <= length t], with
    equality when every frame holds a single record. *)
