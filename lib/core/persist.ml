open Repro_net
open Repro_storage
open Repro_db

type checkpoint = {
  c_snapshot : Database.snapshot;
  c_green_count : int;
  c_green_line : Action.Id.t option;
  c_green_cut : int Node_id.Map.t;
  c_meta : Types.meta;
  c_dedup : Dedup.snapshot;
}

type frame =
  | Ongoing of Action.t array
  | Red of Action.t array
  | Green of Action.t array
  | Meta of Types.meta
  | Checkpoint of checkpoint

let records = function
  | Ongoing actions | Red actions | Green actions -> Array.length actions
  | Meta _ | Checkpoint _ -> 1

type t = { log : frame Wlog.t; disk : Disk.t }

let create ~engine ~disk () =
  { log = Wlog.create ~engine ~disk ~records (); disk }

let disk t = t.disk
let log_meta t m = Wlog.append t.log (Meta m)

(* One Wlog frame per call — one device write, one checksum, and
   downstream one covering force for the whole batch.  [Wlog.append]
   writes no frame for an empty batch. *)
let log_ongoing_batch t actions =
  Wlog.append t.log (Ongoing (Array.of_list actions))

let log_red_batch t actions = Wlog.append t.log (Red (Array.of_list actions))

(* A green mark needs only the id; callers that hold nothing more log a
   bodiless stand-in per id, which no reader of a green frame looks
   past. *)
let log_green_batch t ids =
  let stand_in (id : Action.Id.t) =
    Action.make ~server:id.server ~index:id.index (Action.Update [])
  in
  Wlog.append t.log (Green (Array.of_list (List.map stand_in ids)))

let log_red_marks t actions = Wlog.append t.log (Red actions)
let log_green_marks t actions = Wlog.append t.log (Green actions)
let log_checkpoint t c = Wlog.append t.log (Checkpoint c)
let find_newest t f = Wlog.find_newest t.log f
let sync t k = Wlog.sync t.log k
let crash t = Wlog.crash t.log
let reset t = Wlog.reset t.log
let entries_logged t = Wlog.length t.log
let frames_logged t = Wlog.frame_count t.log

type verdict =
  | V_clean
  | V_torn_tail of int
  | V_salvaged of int
  | V_amnesia

let pp_verdict ppf = function
  | V_clean -> Format.pp_print_string ppf "clean"
  | V_torn_tail n -> Format.fprintf ppf "torn-tail(-%d)" n
  | V_salvaged n -> Format.fprintf ppf "salvaged(-%d)" n
  | V_amnesia -> Format.pp_print_string ppf "amnesia"

type recovered = {
  r_meta : Types.meta option;
  r_green : Action.t list;
  r_checkpoint : checkpoint option;
  r_red : Action.t list;
  r_ongoing : Action.t list;
  r_red_cut : int Node_id.Map.t;
  r_action_index : int;
  r_verdict : verdict;
  r_read_retries : int;
  r_backoff : Repro_sim.Time.t;
}

(* No option box: compaction asks this once per logged action. *)
let cut_of map server =
  match Node_id.Map.find server map with c -> c | exception Not_found -> 0

(* Replay a verified frame list into engine state. *)
let parse ~self frames =
  let bodies = Action.Id.Tbl.create 256 in
  let greened = Action.Id.Tbl.create 256 in
  let meta = ref None in
  let checkpoint = ref None in
  let green_rev = ref [] in
  let red_order_rev = ref [] in
  let ongoing_rev = ref [] in
  let red_cut = ref Node_id.Map.empty in
  let action_index = ref 0 in
  let note_own (id : Action.Id.t) =
    if Node_id.equal id.server self && id.index > !action_index then
      action_index := id.index
  in
  let ongoing (a : Action.t) =
    ongoing_rev := a :: !ongoing_rev;
    note_own a.id
  in
  let red (a : Action.t) =
    Action.Id.Tbl.replace bodies a.id a;
    red_order_rev := a.id :: !red_order_rev;
    if a.id.index > cut_of !red_cut a.id.server then
      red_cut := Node_id.Map.add a.id.server a.id.index !red_cut;
    note_own a.id
  in
  let green (mark : Action.t) =
    let id = mark.id in
    match Action.Id.Tbl.find_opt bodies id with
    | Some a ->
      if not (Action.Id.Tbl.mem greened id) then begin
        Action.Id.Tbl.replace greened id ();
        green_rev := a :: !green_rev
      end
    | None -> () (* body lost with the unflushed tail: treated as unknown *)
  in
  List.iter
    (fun frame ->
      match frame with
      | Ongoing actions -> Array.iter ongoing actions
      | Red actions -> Array.iter red actions
      | Green actions -> Array.iter green actions
      | Meta m -> meta := Some m
      | Checkpoint c ->
        (* The checkpoint summarises everything before it: the green
           prefix lives in its snapshot, red actions it covers are green
           inside it.  Its green cut also bounds the indexes our own
           dead incarnations minted — records of those actions may have
           been compacted away, and re-minting a greened id would
           collide forever. *)
        checkpoint := Some c;
        meta := Some c.c_meta;
        if cut_of c.c_green_cut self > !action_index then
          action_index := cut_of c.c_green_cut self;
        green_rev := [];
        Action.Id.Tbl.reset greened;
        red_order_rev :=
          List.filter
            (fun (id : Action.Id.t) -> id.index > cut_of c.c_green_cut id.server)
            !red_order_rev;
        red_cut :=
          Node_id.Map.union (fun _ a b -> Some (max a b)) c.c_green_cut !red_cut)
    frames;
  let r_red =
    List.rev !red_order_rev
    |> List.filter_map (fun id ->
           if Action.Id.Tbl.mem greened id then None
           else Action.Id.Tbl.find_opt bodies id)
  in
  let r_ongoing =
    List.rev !ongoing_rev
    |> List.filter (fun a -> a.Action.id.index > cut_of !red_cut self)
  in
  ( !meta,
    List.rev !green_rev,
    !checkpoint,
    r_red,
    r_ongoing,
    !red_cut,
    !action_index )

let is_checkpoint = function Checkpoint _ -> true | _ -> false
let checkpoints frames = List.length (List.filter is_checkpoint frames)

(* The highest own action index mentioned anywhere in [frames] —
   including records beyond the damage point.  Adopting it prevents a
   salvaged or amnesiac replica from re-minting an action id its
   previous life already used (ids must be unique forever: a duplicate
   would collide with copies still floating at peers). *)
let max_own_index ~self frames =
  let own acc (a : Action.t) =
    if Node_id.equal a.id.server self then max acc a.id.index else acc
  in
  List.fold_left
    (fun acc frame ->
      match frame with
      | Ongoing actions | Red actions | Green actions ->
        Array.fold_left own acc actions
      | Meta _ | Checkpoint _ -> acc)
    0 frames

(* The own actions with indexes [own_cut + 1 .. floor], in index order:
   the body [body] still holds for an index, else a no-op filler. *)
let mint_own ~self ~body ~own_cut ~floor =
  List.init (max 0 (floor - own_cut)) (fun i ->
      let index = own_cut + 1 + i in
      match body index with
      | Some a -> a
      | None ->
        Action.make ~client:0 ~size:32 ~server:self ~index (Action.Update []))

(* Own-creator action bodies found among [frames] (readable records,
   possibly beyond the damage point), indexed by action index. *)
let own_bodies ~self frames =
  let tbl = Hashtbl.create 8 in
  let note (a : Action.t) =
    if Node_id.equal a.id.server self then Hashtbl.replace tbl a.id.index a
  in
  List.iter
    (fun frame ->
      match frame with
      | Ongoing actions | Red actions -> Array.iter note actions
      | Green _ | Meta _ | Checkpoint _ -> ())
    frames;
  tbl

(* Salvage drops records that were durable — and the engine forces the
   ongoing write *before* multicasting, so a dropped own action may
   already be known (red) at peers.  Action delivery is FIFO and
   gap-free per creator: if this server resumed minting above its
   trusted index, the skipped indexes would never be deliverable and
   every peer would stall on the gap.  So the lost range is re-proposed:
   bodies recovered from readable records verbatim, unrecoverable
   indexes as no-op fillers.  A filler and a still-floating old copy of
   the same id resolve by first-green-wins — globally consistent, since
   green assignment is totally ordered and delivery dedups by id. *)
let refill_own ~self ~readable ~own_cut ~floor =
  let bodies = own_bodies ~self readable in
  mint_own ~self ~body:(Hashtbl.find_opt bodies) ~own_cut ~floor

(* The newest meta record among [frames] (checkpoints carry one too).
   Under-claiming green/red knowledge is safe — peers retransmit — but
   under-claiming the vulnerable record is not: a server that forgot it
   joined an installation attempt could let a non-quorum install.  So
   salvage adopts the newest *readable* meta even past the damage. *)
let newest_meta frames =
  List.fold_left
    (fun acc frame ->
      match frame with
      | Meta m -> Some m
      | Checkpoint c -> Some c.c_meta
      | Ongoing _ | Red _ | Green _ -> acc)
    None frames

let fresh =
  {
    r_meta = None;
    r_green = [];
    r_checkpoint = None;
    r_red = [];
    r_ongoing = [];
    r_red_cut = Node_id.Map.empty;
    r_action_index = 0;
    r_verdict = V_clean;
    r_read_retries = 0;
    r_backoff = Repro_sim.Time.zero;
  }

let recover ~self t =
  let rv = Wlog.recover t.log in
  let finish ~verdict ~meta_override ~action_floor frames =
    let meta, green, checkpoint, red, ongoing, red_cut, action_index =
      parse ~self frames
    in
    {
      r_meta = (match meta_override with Some _ as m -> m | None -> meta);
      r_green = green;
      r_checkpoint = checkpoint;
      r_red = red;
      r_ongoing = ongoing;
      r_red_cut = red_cut;
      r_action_index = max action_index action_floor;
      r_verdict = verdict;
      r_read_retries = rv.Wlog.rv_read_retries;
      r_backoff = rv.Wlog.rv_backoff;
    }
  in
  match rv.Wlog.rv_verdict with
  | Wlog.Clean ->
    finish ~verdict:V_clean ~meta_override:None ~action_floor:0
      rv.Wlog.rv_trusted
  | Wlog.Torn_tail i ->
    (* The damaged suffix was in flight: its sync callback never fired,
       so no one — client, peer, or the engine's own continuation — was
       ever told it was durable.  Truncating it is indistinguishable
       from having crashed a moment earlier.  [i] is a frame index;
       the verdict reports dropped *records*, so count them as the
       length delta across the truncation. *)
    let before = Wlog.length t.log in
    Wlog.truncate_damaged t.log ~from:i;
    let dropped = before - Wlog.length t.log in
    finish ~verdict:(V_torn_tail dropped) ~meta_override:None ~action_floor:0
      rv.Wlog.rv_trusted
  | Wlog.Corrupt_interior i ->
    let foundation_lost =
      (* The log's head record is gone (for a compacted log that head is
         the checkpoint everything builds on), or the freshest readable
         checkpoint lies at/after the damage: the trusted prefix would
         rebuild state older than what this server already claimed
         durably.  No prefix can be trusted — discard and rejoin by
         state transfer. *)
      i = 0 || checkpoints rv.Wlog.rv_readable > checkpoints rv.Wlog.rv_trusted
    in
    if foundation_lost then begin
      let action_floor = max_own_index ~self rv.Wlog.rv_readable in
      Wlog.reset t.log;
      {
        fresh with
        r_action_index = action_floor;
        r_verdict = V_amnesia;
        r_read_retries = rv.Wlog.rv_read_retries;
        r_backoff = rv.Wlog.rv_backoff;
      }
    end
    else begin
      let before = Wlog.length t.log in
      Wlog.truncate_damaged t.log ~from:i;
      let dropped = before - Wlog.length t.log in
      let r =
        finish ~verdict:(V_salvaged dropped)
          ~meta_override:(newest_meta rv.Wlog.rv_readable)
          ~action_floor:(max_own_index ~self rv.Wlog.rv_readable)
          rv.Wlog.rv_trusted
      in
      (* Re-propose the own actions the dropped suffix held (see
         [refill_own]); the trusted ongoing queue ends at the trusted
         index, so appending keeps the queue in index order. *)
      let own_cut =
        List.fold_left
          (fun acc (a : Action.t) -> max acc a.id.index)
          (cut_of r.r_red_cut self) r.r_ongoing
      in
      let refill =
        refill_own ~self ~readable:rv.Wlog.rv_readable ~own_cut
          ~floor:r.r_action_index
      in
      { r with r_ongoing = r.r_ongoing @ refill }
    end

let corrupt_nth t nth = Wlog.corrupt t.log ~nth

(* The actions of [actions] that pass [p], in order: [actions] itself
   when every one does. *)
let filter_actions p actions =
  let kept = Array.fold_left (fun n a -> if p a then n + 1 else n) 0 actions in
  if kept = Array.length actions then actions
  else if kept = 0 then [||]
  else begin
    let out = Array.make kept actions.(0) in
    let j = ref 0 in
    Array.iter
      (fun a ->
        if p a then begin
          out.(!j) <- a;
          incr j
        end)
      actions;
    out
  end
  (* Two passes over one frame's records. *)
  [@@analysis.cost "O(batch); alloc O(batch)"]

(* Compaction: keep the newest checkpoint and whatever it does not
   cover — later records, red actions above its green cuts, and own
   ongoing actions.  Mirrors switching to a fresh log segment whose head
   is the checkpoint. *)
let compact t =
  (* With damage present, compaction could silently drop records the
     verdict policy still needs; leave the log alone until the next
     recovery has resolved it.  [Wlog.clean] draws the disk's transient
     read errors exactly as a recovery would. *)
  if Wlog.clean t.log then
    match
      find_newest t (function Checkpoint c -> Some c | _ -> None)
    with
    | None -> ()
    | Some c ->
      let uncovered (a : Action.t) =
        a.id.index > cut_of c.c_green_cut a.id.server
      in
      (* Most frames before the checkpoint are dropped whole: that
         case allocates nothing. *)
      let keep_uncovered frame actions rebuild =
        let kept = filter_actions uncovered actions in
        if kept == actions then Some frame
        else if Array.length kept = 0 then None
        else Some (rebuild kept)
      in
      let after_checkpoint = ref false in
      let keep frame =
        if !after_checkpoint then Some frame
        else
          match frame with
          | Checkpoint c' when c' == c ->
            after_checkpoint := true;
            Some frame
          | Checkpoint _ | Meta _ | Green _ -> None
          | Red actions -> keep_uncovered frame actions (fun a -> Red a)
          | Ongoing actions -> keep_uncovered frame actions (fun a -> Ongoing a)
      in
      Wlog.compact t.log ~keep
