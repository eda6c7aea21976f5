open Repro_sim

(* Frame framing: records are grouped into *frames* — the unit of
   logging, checksumming and crash damage.  A frame carries one
   monotonic sequence number and one checksum covering all of its
   records; a frame of one record is exactly the old per-record
   framing.  The log never looks inside a frame's body: the caller's
   [records] function says how many records it holds, and its type
   says what kind of frame it is.  The simulation does not store real
   bytes, so the checksum is modelled by [sum_ok] — whether the stored
   checksum would still verify against the frame body — flipped by the
   disk's fault model (torn in-flight writes, crash-time corruption) or
   by explicit injection.  Damage is all-or-nothing at frame
   granularity: a failing frame checksum says nothing about which
   record inside went bad. *)
type 'body frame = {
  body : 'body;
  epoch : int;
  seq : int;
  mutable sum_ok : bool;
  mutable torn : bool; (* damaged as the in-flight frame of a crash *)
}

type verdict =
  | Clean
  | Torn_tail of int
  | Corrupt_interior of int

let pp_verdict ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Torn_tail i -> Format.fprintf ppf "torn-tail@%d" i
  | Corrupt_interior i -> Format.fprintf ppf "corrupt-interior@%d" i

type 'body recovery = {
  rv_verdict : verdict;
  rv_trusted : 'body list;
  rv_readable : 'body list;
  rv_read_retries : int;
  rv_backoff : Time.t;
}

type 'body t = {
  disk : Disk.t;
  records : 'body -> int;
  mutable frames : 'body frame list; (* newest first *)
  mutable next_seq : int; (* never reset: survives compaction and reset *)
  mutable record_count : int; (* sum of frame sizes: O(1) [length] *)
}

let create ~engine:_ ~disk ~records () =
  { disk; records; frames = []; next_seq = 0; record_count = 0 }

let disk t = t.disk

let count_records t =
  List.fold_left (fun n f -> n + t.records f.body) 0 t.frames

(* One frame, one device write, one sequence number — however many
   records ride inside.  An empty frame is a no-op (no frame, no
   write): it must not burn a sequence number that recovery would then
   see as a silent gap. *)
let append t body =
  let n = t.records body in
  if n > 0 then begin
    let epoch = Disk.note_write t.disk in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.record_count <- t.record_count + n;
    t.frames <- { body; epoch; seq; sum_ok = true; torn = false } :: t.frames
  end
  [@@analysis.hotpath "O(1)"]

let sync t k = Disk.force t.disk k

let crash t =
  Disk.crash t.disk;
  let durable = Disk.last_durable_epoch t.disk in
  let survivors, lost =
    List.partition (fun f -> f.epoch <= durable) t.frames
  in
  (* The oldest unsynced frame is the one the platter was writing when
     the crash hit: it may survive torn (present but failing its
     checksum, all of its records suspect at once).  Everything younger
     never reached the device. *)
  let torn_survivor =
    match List.rev lost with
    | oldest :: _ when Disk.draw_torn_tail t.disk ->
      oldest.sum_ok <- false;
      oldest.torn <- true;
      [ oldest ]
    | _ -> []
  in
  (* Crash-time corruption of durable frames, oldest first so the
     seeded draw order is stable. *)
  List.iter
    (fun f -> if Disk.draw_corrupt t.disk then f.sum_ok <- false)
    (List.rev survivors);
  t.frames <- torn_survivor @ survivors;
  t.record_count <- count_records t

(* One framed read: transient errors are retried with exponential
   backoff up to the disk's budget; a frame still unreadable after that
   counts as damaged (we cannot tell a dying sector from a corrupt one). *)
let rec read_attempt t ~retries ~backoff n delay =
  if Disk.draw_read_error t.disk then
    if n + 1 >= (Disk.faults t.disk).Disk.read_retries then false
    else begin
      incr retries;
      backoff := Time.add !backoff ~span:delay;
      read_attempt t ~retries ~backoff (n + 1) (Time.scale delay 2.)
    end
  else true

let read_record t ~retries ~backoff =
  read_attempt t ~retries ~backoff 0 (Disk.faults t.disk).Disk.read_backoff

type 'body read = { r_body : 'body; r_seq : int; r_ok : bool; r_torn : bool }

(* Verify the chain oldest-first: a frame is damaged when its checksum
   fails, it is unreadable, or its sequence number does not advance
   the chain (reordered or duplicated frame).  All verdict positions
   are frame indices — damage is only detectable per frame.  The first
   damaged frame ends the trusted prefix, and the tail after it is
   torn only if no intact frame follows it. *)
let judge reads =
  let first = ref (-1) and first_torn = ref false and tail_damaged = ref true in
  let prev_seq = ref min_int and trusted = ref [] and readable = ref [] in
  List.iteri
    (fun i r ->
      if r.r_ok then readable := r.r_body :: !readable;
      if r.r_ok && r.r_seq > !prev_seq then begin
        prev_seq := r.r_seq;
        if !first < 0 then trusted := r.r_body :: !trusted else tail_damaged := false
      end
      else if !first < 0 then begin
        first := i;
        first_torn := r.r_torn
      end)
    reads;
  let verdict =
    if !first < 0 then Clean
    else if !first_torn && !tail_damaged then Torn_tail !first
    else Corrupt_interior !first
  in
  (verdict, List.rev !trusted, List.rev !readable)

let recover t =
  let retries = ref 0 in
  let backoff = ref Time.zero in
  (* Read newest first (the disk's draw order), listed oldest first. *)
  let reads =
    List.rev_map
      (fun f ->
        let r_ok = f.sum_ok && read_record t ~retries ~backoff in
        { r_body = f.body; r_seq = f.seq; r_ok; r_torn = f.torn })
      t.frames
  in
  let verdict, trusted, readable = judge reads in
  {
    rv_verdict = verdict;
    rv_trusted = trusted;
    rv_readable = readable;
    rv_read_retries = !retries;
    rv_backoff = !backoff;
  }

let length t = t.record_count
let frame_count t = List.length t.frames

let truncate_damaged t ~from =
  t.frames <-
    List.rev (List.filteri (fun i _ -> i < from) (List.rev t.frames));
  t.record_count <- count_records t

let reset t =
  t.frames <- [];
  t.record_count <- 0

let corrupt t ~nth =
  (* Record-addressed: damaging record [nth] fails the checksum of the
     frame containing it — per-frame checksums cannot localize further. *)
  let rec find base = function
    | [] -> false
    | f :: rest ->
      let n = t.records f.body in
      if nth < base + n then begin
        f.sum_ok <- false;
        true
      end
      else find (base + n) rest
  in
  if nth < 0 then false else find 0 (List.rev t.frames)

(* Whether [recover] would find the log [Clean].  It makes the same
   read-error draws as [recover], in the same order: every frame,
   newest first, none for a frame whose checksum already fails.  So a
   caller that only needs the verdict leaves the disk's RNG stream
   exactly where a full recovery would, without building record lists. *)
let clean t =
  let retries = ref 0 and backoff = ref Time.zero in
  let rec go ok newer_seq = function
    | [] -> ok
    | f :: older ->
      let readable = f.sum_ok && read_record t ~retries ~backoff in
      go (ok && readable && f.seq < newer_seq) f.seq older
  in
  go true max_int t.frames
  (* One pass over the frames; the retries per frame are bounded by the
     disk's constant budget. *)
  [@@analysis.cost "O(log); alloc O(1)"]

let find_newest t f =
  let rec go = function
    | [] -> None
    | fr :: older -> (
      match f fr.body with Some _ as r -> r | None -> go older)
  in
  go t.frames
  [@@analysis.cost "O(log); alloc O(1)"]

let compact t ~keep =
  (* [keep] may be stateful and expects append order (oldest first), so
     it is asked exactly once per frame.  Frames are preserved as units
     — a frame that loses records keeps its header (seq, epoch) so the
     sequence chain that recovery verifies stays intact; a frame kept
     whole (its body returned as is) is reused, and frames left with no
     record are dropped. *)
  let keep_frame acc f =
    match keep f.body with
    | Some body when body == f.body -> f :: acc
    | Some body when t.records body > 0 -> { f with body } :: acc
    | Some _ | None -> acc
  in
  t.frames <- List.fold_left keep_frame [] (List.rev t.frames);
  t.record_count <- count_records t
  (* Asks [keep] once per frame; allocates per frame (the list spines
     and the headers of partly kept frames). *)
  [@@analysis.cost "O(log); alloc O(log)"]
