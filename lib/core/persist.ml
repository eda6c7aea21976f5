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

type entry =
  | E_ongoing of Action.t
  | E_red of Action.t
  | E_green of Action.Id.t
  | E_meta of Types.meta
  | E_checkpoint of checkpoint

type t = { log : entry Wlog.t; disk : Disk.t }

let create ~engine ~disk () = { log = Wlog.create ~engine ~disk (); disk }
let disk t = t.disk
let log_meta t m = Wlog.append t.log [| E_meta m |]

let rec fill records entry xs i =
  if i < Array.length records then begin
    records.(i) <- entry xs.(i);
    fill records entry xs (i + 1)
  end
  (* One step per record of the frame. *)
  [@@analysis.cost "O(batch); alloc O(batch)"]

(* One Wlog frame per call — one device write, one checksum, and
   downstream one covering force for the whole batch — with a record
   per element of [xs.(0 .. n - 1)], its array filled in one pass.  No
   frame for an empty batch. *)
let append_frame t entry xs n =
  if n > 0 then begin
    let records = Array.make n (entry xs.(0)) in
    fill records entry xs 1;
    Wlog.append t.log records
  end

let rec fill_list records entry i = function
  | [] -> ()
  | x :: rest ->
    records.(i) <- entry x;
    fill_list records entry (i + 1) rest
  [@@analysis.cost "O(batch); alloc O(batch)"]

(* The same for a batch given as a list, with no intermediate array. *)
let append_list t entry = function
  | [] -> ()
  | x :: rest as xs ->
    let records = Array.make (List.length xs) (entry x) in
    fill_list records entry 1 rest;
    Wlog.append t.log records
  (* The frame is as long as the list: one pass counts it, one fills
     it. *)
  [@@analysis.cost "O(batch); alloc O(batch)"]

let log_ongoing_batch t actions = append_list t (fun a -> E_ongoing a) actions
let log_red_batch t actions = append_list t (fun a -> E_red a) actions
let log_green_batch t ids = append_list t (fun id -> E_green id) ids
let log_red_marks t marks n = append_frame t (fun a -> E_red a) marks n

let log_green_marks t marks n =
  append_frame t (fun (a : Action.t) -> E_green a.id) marks n

let log_checkpoint t c = Wlog.append t.log [| E_checkpoint c |]
let sync t k = Wlog.sync t.log k
let crash t = Wlog.crash t.log
let reset t = Wlog.reset t.log
let entries_logged t = Wlog.length t.log

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

(* Replay a verified entry list into engine state. *)
let parse ~self entries =
  let bodies = Action.Id.Tbl.create 256 in
  let greened = Action.Id.Tbl.create 256 in
  let meta = ref None in
  let checkpoint = ref None in
  let green_rev = ref [] in
  let red_order_rev = ref [] in
  let ongoing_rev = ref [] in
  let red_cut = ref Node_id.Map.empty in
  let action_index = ref 0 in
  let note_cut (id : Action.Id.t) =
    if id.index > cut_of !red_cut id.server then
      red_cut := Node_id.Map.add id.server id.index !red_cut;
    if Node_id.equal id.server self && id.index > !action_index then
      action_index := id.index
  in
  List.iter
    (fun entry ->
      match entry with
      | E_ongoing a ->
        ongoing_rev := a :: !ongoing_rev;
        if
          Node_id.equal a.Action.id.server self
          && a.Action.id.index > !action_index
        then
          action_index := a.Action.id.index
      | E_red a ->
        Action.Id.Tbl.replace bodies a.Action.id a;
        red_order_rev := a.Action.id :: !red_order_rev;
        note_cut a.Action.id
      | E_green id -> (
        match Action.Id.Tbl.find_opt bodies id with
        | Some a ->
          if not (Action.Id.Tbl.mem greened id) then begin
            Action.Id.Tbl.replace greened id ();
            green_rev := a :: !green_rev
          end
        | None -> () (* body lost with the unflushed tail: treated as unknown *))
      | E_meta m -> meta := Some m
      | E_checkpoint c ->
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
    entries;
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

let is_checkpoint = function E_checkpoint _ -> true | _ -> false
let checkpoints entries = List.length (List.filter is_checkpoint entries)

(* The highest own action index mentioned anywhere in [entries] —
   including records beyond the damage point.  Adopting it prevents a
   salvaged or amnesiac replica from re-minting an action id its
   previous life already used (ids must be unique forever: a duplicate
   would collide with copies still floating at peers). *)
let max_own_index ~self entries =
  List.fold_left
    (fun acc entry ->
      let own (id : Action.Id.t) =
        if Node_id.equal id.server self then max acc id.index else acc
      in
      match entry with
      | E_ongoing a | E_red a -> own a.Action.id
      | E_green id -> own id
      | E_meta _ | E_checkpoint _ -> acc)
    0 entries

(* Own-creator action bodies found among [entries] (readable records,
   possibly beyond the damage point), indexed by action index. *)
let own_bodies ~self entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun entry ->
      match entry with
      | E_ongoing a | E_red a ->
        if Node_id.equal a.Action.id.server self then
          Hashtbl.replace tbl a.Action.id.index a
      | E_green _ | E_meta _ | E_checkpoint _ -> ())
    entries;
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
  let rec build idx acc =
    if idx > floor then List.rev acc
    else
      let a =
        match Hashtbl.find_opt bodies idx with
        | Some a -> a
        | None ->
          Action.make ~client:0 ~size:32 ~server:self ~index:idx
            (Action.Update [])
      in
      build (idx + 1) (a :: acc)
  in
  build (own_cut + 1) []

(* The newest meta record among [entries] (checkpoints carry one too).
   Under-claiming green/red knowledge is safe — peers retransmit — but
   under-claiming the vulnerable record is not: a server that forgot it
   joined an installation attempt could let a non-quorum install.  So
   salvage adopts the newest *readable* meta even past the damage. *)
let newest_meta entries =
  List.fold_left
    (fun acc entry ->
      match entry with
      | E_meta m -> Some m
      | E_checkpoint c -> Some c.c_meta
      | E_ongoing _ | E_red _ | E_green _ -> acc)
    None entries

let recover ~self t =
  let rv = Wlog.recover t.log in
  let finish ~verdict ~meta_override ~action_floor entries =
    let meta, green, checkpoint, red, ongoing, red_cut, action_index =
      parse ~self entries
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
        r_meta = None;
        r_green = [];
        r_checkpoint = None;
        r_red = [];
        r_ongoing = [];
        r_red_cut = Node_id.Map.empty;
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

(* Compaction: keep the newest checkpoint and whatever it does not
   cover — later entries, red actions above its green cuts, and own
   ongoing actions.  Mirrors switching to a fresh log segment whose head
   is the checkpoint. *)
let compact t =
  (* With damage present, compaction could silently drop records the
     verdict policy still needs; leave the log alone until the next
     recovery has resolved it.  [Wlog.clean] draws the disk's transient
     read errors exactly as a recovery would. *)
  if Wlog.clean t.log then
    match
      Wlog.find_newest t.log (function E_checkpoint c -> Some c | _ -> None)
    with
    | None -> ()
    | Some c ->
      let covered (id : Action.Id.t) =
        id.index <= cut_of c.c_green_cut id.server
      in
      let after_checkpoint = ref false in
      let keep entry =
        if !after_checkpoint then true
        else
          match entry with
          | E_checkpoint c' when c' == c ->
            after_checkpoint := true;
            true
          | E_checkpoint _ | E_meta _ | E_green _ -> false
          | E_red a -> not (covered a.Action.id)
          | E_ongoing a -> not (covered a.Action.id)
      in
      Wlog.compact t.log ~keep
