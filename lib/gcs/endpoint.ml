open Repro_sim
open Repro_net

type service = Agreed | Safe

type view = { id : Conf_id.t; members : Node_id.Set.t }

type 'p delivery = {
  sender : Node_id.t;
  payload : 'p;
  conf : Conf_id.t;
  seq : int;
  in_regular : bool;
}

type 'p event = Deliver of 'p delivery | Trans_conf of view | Reg_conf of view

type 'p data = {
  d_conf : Conf_id.t;
  d_sender : Node_id.t;
  d_lseq : int;
  d_service : service;
  d_payload : 'p;
  d_size : int;
}

type flush_record = {
  fr_old_conf : Conf_id.t option;
  fr_evicted : int; (* all seqs <= this were evicted (provably at everyone) *)
  fr_inventory : int list; (* seqs held above fr_evicted, ascending *)
  fr_delivered : int; (* app-delivered prefix *)
}

type 'p wire =
  | Data of 'p data
  | Order of { o_conf : Conf_id.t; o_entries : (int * Node_id.t * int) list }
    (* (seq, sender, lseq), ascending *)
  | Ack of { a_conf : Conf_id.t; a_upto : int }
  | Heartbeat of { h_conf : Conf_id.t }
  | Probe of { p_conf : Conf_id.t }
  | MGather of { g_round : int; g_set : Node_id.Set.t }
  | MPropose of { m_vid : Conf_id.t; m_members : Node_id.Set.t }
  | MFlush of { f_vid : Conf_id.t; f_from : Node_id.t; f_record : flush_record }
  | MRetrans of { r_vid : Conf_id.t; r_entries : (int * 'p data) list }
  | MReady of { y_vid : Conf_id.t; y_from : Node_id.t }
  | MInstall of { i_vid : Conf_id.t; i_members : Node_id.Set.t }
  | Nack of { k_conf : Conf_id.t; k_from : int; k_to : int }
    (* please retransmit ordered messages [k_from..k_to] *)
  | Repair of { q_conf : Conf_id.t; q_entries : (int * 'p data) list }

(* Data-plane state of one installed regular configuration.  Sequence
   numbers are contiguous and the members are fixed for the view, so the
   receive tables are windows indexed by sequence number and arrays
   indexed by member (a member's rank in the view, ascending). *)
type 'p conf_state = {
  cview : view;
  coord : Node_id.t;
  index : int array; (* node id -> rank in [cview.members], -1 if none *)
  me : int; (* this node's rank *)
  others : Node_id.t list; (* the members but this node: every multicast's destinations *)
  era : int; (* [t.era] while this configuration is installed: guards its timers *)
  mutable next_lseq : int;
  own_pending : (int, 'p data * Time.t) Hashtbl.t;
    (* own messages not yet ordered: resent if the coordinator stays
       silent about them (loss recovery) *)
  data_buf : 'p data Window.t array; (* per member, by lseq: received, not yet ordered *)
  pending_assignment : int Window.t array; (* per member, by lseq: order before payload *)
  store : 'p data Window.t;
    (* seq -> ordered message; its base is the highest evicted seq *)
  mutable have_upto : int; (* contiguous prefix present in [store] *)
  mutable delivered_upto : int; (* contiguous prefix delivered to the app *)
  mutable safe_upto : int; (* prefix acked by every member *)
  mutable last_acked : int; (* have_upto as of the last ack we multicast *)
  acks : int array; (* per member: highest cumulative ack *)
  mutable max_safe_seq : int; (* highest stored safe-service sequence *)
  (* sequencer-only: *)
  mutable next_seq : int;
  mutable pending_order : (Node_id.t * int) list; (* reversed *)
  mutable order_armed : bool;
  mutable ack_armed : bool;
  mutable ack_timer : unit -> unit;
  mutable order_timer : unit -> unit;
}

type gather_state = {
  mutable g_members : Node_id.Set.t;
  mutable g_token : int; (* bumped on growth; guards stability timers *)
  mutable g_waiting_proposal : bool;
}

type flush_state = {
  fl_vid : Conf_id.t;
  fl_members : Node_id.Set.t;
  fl_coord : Node_id.t;
  fl_records : (Node_id.t, flush_record) Hashtbl.t;
  mutable fl_retrans_sent : bool;
  mutable fl_ready_sent : bool;
  mutable fl_group : Node_id.Set.t; (* members sharing my old conf *)
  mutable fl_union_max : int; (* deliverable prefix of my old conf *)
  fl_ready : (Node_id.t, unit) Hashtbl.t; (* coordinator: MReady received *)
}

type status =
  | Down
  | Idle (* created or recovered, not yet joined *)
  | Gathering of gather_state
  | Flushing of flush_state
  | Installed

type 'p t = {
  net : 'p wire Network.t;
  engine : Engine.t;
  prm : Params.t;
  node : Node_id.t;
  on_event : 'p event -> unit;
  on_burst_start : unit -> unit;
  on_burst_end : unit -> unit;
    (* bracket every run of consecutive [on_event] calls (a delivery
       burst): the layer above group-commits its work per burst *)
  mutable status : status;
  mutable conf : 'p conf_state option;
    (* last installed configuration; retained during membership changes
       for flush inventory, retransmission and leftover delivery *)
  mutable outbox : (service * int * 'p) list; (* reversed; queued sends *)
  mutable early_flushes : (Conf_id.t * Node_id.t * flush_record) list;
    (* MFlush can overtake its MPropose under latency jitter *)
  mutable counter : int; (* conf-id counter source *)
  mutable my_round : int; (* gather round stamp; stale rounds never
                             interrupt a flush or an installed view *)
  gather_rounds : (Node_id.t, int) Hashtbl.t; (* highest round seen *)
  mutable era : int; (* bumped on every status change; guards timers *)
  last_heard : Time.t Node_id.Tbl.t;
  mutable last_sent : Time.t;
  mutable last_probe : Time.t;
  mutable installed_count : int;
  mutable periodic : (unit -> unit) option; (* built by the first [join] *)
}

let node t = t.node
let params t = t.prm
let installed_count t = t.installed_count

let current_view t =
  match (t.status, t.conf) with
  | Installed, Some cs -> Some cs.cview
  | _ -> None

let is_installed t = match t.status with Installed -> true | _ -> false

let store_stats t =
  match t.conf with
  | Some cs -> Some (Window.length cs.store, Window.base cs.store)
  | None -> None

let next_counter t =
  let c = max (t.counter + 1) (Time.to_us (Engine.now t.engine)) in
  t.counter <- c;
  c

let log_src = Logs.Src.create "repro.gcs" ~doc:"group communication"

module Log = (val Logs.src_log log_src)

let dbg t detail =
  Log.debug (fun m -> m "[%a n%d] %s" Time.pp (Engine.now t.engine) t.node detail)

let set_status t status =
  t.era <- t.era + 1;
  t.status <- status

(* ------------------------------------------------------------------ *)
(* Wire sizes (bytes): a rough but monotone model used for bandwidth.  *)

let size_of_wire prm = function
  | Data d -> prm.Params.header_bytes + d.d_size
  | Order { o_entries; _ } -> 24 + (12 * List.length o_entries)
  | Ack _ -> 24
  | Heartbeat _ -> 16
  | Probe _ -> 24
  | MGather { g_set; _ } -> 32 + (8 * Node_id.Set.cardinal g_set)
  | MPropose { m_members; _ } -> 32 + (8 * Node_id.Set.cardinal m_members)
  | MFlush { f_record; _ } -> 48 + (8 * List.length f_record.fr_inventory)
  | MRetrans { r_entries; _ } ->
    List.fold_left
      (fun acc (_, d) -> acc + prm.Params.header_bytes + d.d_size + 8)
      24 r_entries
  | MReady _ -> 24
  | MInstall { i_members; _ } -> 32 + (8 * Node_id.Set.cardinal i_members)
  | Nack _ -> 32
  | Repair { q_entries; _ } ->
    List.fold_left
      (fun acc (_, d) -> acc + prm.Params.header_bytes + d.d_size + 8)
      24 q_entries
  (* Folds over the one message's own entry list — batch-sized. *)
  [@@analysis.cost "O(batch); alloc O(1)"]

let multicast_list t ~dsts msg =
  t.last_sent <- Engine.now t.engine;
  Network.multicast t.net ~src:t.node ~dsts ~size:(size_of_wire t.prm msg) msg

let multicast_set t ~dsts msg =
  multicast_list t msg
    ~dsts:(Node_id.Set.elements dsts |> List.filter (fun n -> not (Node_id.equal n t.node)))

(* To the installed configuration, whose destination list is built once
   per view rather than per message. *)
let multicast_view t cs msg = multicast_list t ~dsts:cs.others msg

let unicast t ~dst msg =
  t.last_sent <- Engine.now t.engine;
  Network.unicast t.net ~src:t.node ~dst ~size:(size_of_wire t.prm msg) msg

let broadcast_component t msg =
  t.last_sent <- Engine.now t.engine;
  Network.broadcast_component t.net ~src:t.node ~size:(size_of_wire t.prm msg) msg

(* ------------------------------------------------------------------ *)
(* Data plane within an installed configuration.                       *)

let i_am_coord t cs = Node_id.equal t.node cs.coord

(* A member's rank in the view, -1 for a node outside it. *)
let member_index cs node =
  if node >= 0 && node < Array.length cs.index then cs.index.(node) else -1

(* Receipt handling runs per received message: it looks tables up with
   [find] rather than [find_opt] and loops with top-level functions
   rather than closures, so that an ack allocates nothing here. *)
let rec min_ack acks i acc =
  if i < 0 then acc else min_ack acks (i - 1) (Int.min acc acks.(i))
  (* One slot per member of the view. *)
  [@@analysis.cost "O(members); alloc O(1)"]

let recompute_safe cs =
  let min_ack = min_ack cs.acks (Array.length cs.acks - 1) max_int in
  if min_ack > cs.safe_upto then cs.safe_upto <- min_ack

(* Deliver every ready message: next in sequence, present, and either
   agreed service or within the safe prefix.  The whole run is one
   delivery burst: an ack or order batch typically releases several
   messages at once, and the application applies them as one group. *)
let rec deliver_ready t cs =
  let next = cs.delivered_upto + 1 in
  match Window.find cs.store next with
  | exception Not_found -> ()
  | d ->
    let deliverable =
      match d.d_service with Agreed -> true | Safe -> next <= cs.safe_upto
    in
    if deliverable then begin
      cs.delivered_upto <- next;
      t.on_event
        (Deliver
           {
             sender = d.d_sender;
             payload = d.d_payload;
             conf = d.d_conf;
             seq = next;
             in_regular = true;
           });
      deliver_ready t cs
    end
  (* Delivers the contiguous run above [delivered_upto] — each call
     consumes one stored message, so the sweep is bounded by the store
     (the in-flight queue). *)
  [@@analysis.cost "O(queue); alloc O(queue)"]

let try_deliver t cs =
  t.on_burst_start ();
  deliver_ready t cs;
  t.on_burst_end ()

(* Messages below the safe line are held by every member (safe = everyone
   acked contiguous receipt), so they can never be needed for
   retransmission: evict them in chunks to bound memory. *)
let evict cs =
  let limit = min cs.safe_upto cs.delivered_upto in
  if limit - Window.base cs.store > 4096 then Window.slide cs.store limit

let rec advance_have cs =
  if Window.mem cs.store (cs.have_upto + 1) then begin
    cs.have_upto <- cs.have_upto + 1;
    advance_have cs
  end
  (* One store lookup per received message. *)
  [@@analysis.cost "O(queue); alloc O(1)"]

let note_have_advanced t cs =
  advance_have cs;
  (* Our own cumulative ack is visible locally at once. *)
  cs.acks.(cs.me) <- cs.have_upto;
  recompute_safe cs;
  try_deliver t cs;
  evict cs;
  if not cs.ack_armed then begin
    cs.ack_armed <- true;
    (* Acknowledge promptly when our cumulative ack carries NEWS —
       receipt progress peers have not been told about while
       safe-service messages wait for stability.  When we are merely
       waiting on other members' acks, re-announcing the same
       [have_upto] advances nobody: fall back to a slow housekeeping
       cadence (loss recovery and eviction).  A fast timer here is a
       multicast busy-wait — under a CPU model it congests every
       receive queue and the stability it polls for recedes, a
       self-sustaining collapse no admission control above can stop. *)
    let delay =
      if cs.max_safe_seq > cs.safe_upto && cs.have_upto > cs.last_acked then
        t.prm.ack_delay
      else Time.scale t.prm.ack_delay 25.
    in
    Engine.schedule t.engine ~delay cs.ack_timer
  end

(* The ack timer: multicast our cumulative ack, and re-arm while safety
   progress is still pending. *)
let ack_due t (cs : _ conf_state) =
  if cs.era = t.era then begin
    cs.ack_armed <- false;
    cs.last_acked <- cs.have_upto;
    multicast_view t cs (Ack { a_conf = cs.cview.id; a_upto = cs.have_upto });
    if cs.max_safe_seq > cs.safe_upto then note_have_advanced t cs
  end
  [@@analysis.hotpath "O(batch+members+queue)"]

let store_message t cs ~seq (d : 'p data) =
  Window.replace cs.store seq d;
  (* An order assignment for one of our own messages confirms the
     sequencer received it: stop the resend clock. *)
  if Node_id.equal d.d_sender t.node then Hashtbl.remove cs.own_pending d.d_lseq;
  (match d.d_service with
  | Safe -> if seq > cs.max_safe_seq then cs.max_safe_seq <- seq
  | Agreed -> ());
  let i = member_index cs d.d_sender in
  if i >= 0 then begin
    Window.remove cs.data_buf.(i) d.d_lseq;
    Window.remove cs.pending_assignment.(i) d.d_lseq
  end

(* The total order puts [sender]'s message [lseq] at [seq]: store it if
   its payload is here, else hold the place until the payload arrives. *)
let assign t cs ~seq ~sender ~lseq =
  let i = member_index cs sender in
  if i >= 0 then
    match Window.find cs.data_buf.(i) lseq with
    | d -> store_message t cs ~seq d
    | exception Not_found -> Window.replace cs.pending_assignment.(i) lseq seq

let flush_order_batch t cs =
  let entries = List.rev cs.pending_order in
  cs.pending_order <- [];
  if entries <> [] then begin
    let numbered =
      List.map
        (fun (sender, lseq) ->
          cs.next_seq <- cs.next_seq + 1;
          (cs.next_seq, sender, lseq))
        entries
    in
    List.iter (fun (seq, sender, lseq) -> assign t cs ~seq ~sender ~lseq) numbered;
    multicast_view t cs (Order { o_conf = cs.cview.id; o_entries = numbered });
    note_have_advanced t cs
  end

(* The order timer: the sequencer orders the batch received since it
   was armed. *)
let order_due t (cs : _ conf_state) =
  if cs.era = t.era then begin
    cs.order_armed <- false;
    flush_order_batch t cs
  end
  [@@analysis.hotpath "O(batch+members+queue)"]

let coord_enqueue_order t cs ~sender ~lseq =
  cs.pending_order <- (sender, lseq) :: cs.pending_order;
  if not cs.order_armed then begin
    cs.order_armed <- true;
    Engine.schedule t.engine ~delay:t.prm.order_delay cs.order_timer
  end

(* Built as [t] enters [Installed]: [era] is that status's era, and the
   two ordering timers are made once for the configuration's lifetime. *)
let new_conf_state t view =
  let members = Node_id.Set.elements view.members in
  let n = List.length members in
  let index = Array.make (Node_id.Set.max_elt view.members + 1) (-1) in
  List.iteri (fun i m -> index.(m) <- i) members;
  let cs =
    {
      cview = view;
      coord = Node_id.Set.min_elt view.members;
      index;
      me = index.(t.node);
      others = List.filter (fun n -> not (Node_id.equal n t.node)) members;
      era = t.era;
      next_lseq = 0;
      own_pending = Hashtbl.create 16;
      data_buf = Array.init n (fun _ -> Window.create ());
      pending_assignment = Array.init n (fun _ -> Window.create ());
      store = Window.create ();
      have_upto = 0;
      delivered_upto = 0;
      safe_upto = 0;
      last_acked = 0;
      acks = Array.make n 0;
      max_safe_seq = 0;
      next_seq = 0;
      pending_order = [];
      order_armed = false;
      ack_armed = false;
      ack_timer = ignore;
      order_timer = ignore;
    }
  in
  cs.ack_timer <- (fun () -> ack_due t cs);
  cs.order_timer <- (fun () -> order_due t cs);
  cs

(* A data message for the current (or retained old) configuration. When
   installed, the coordinator assigns it a place in the total order; any
   member may instead be completing an assignment it already knows. *)
let handle_data t cs ~installed (d : 'p data) =
  let i = member_index cs d.d_sender in
  if i >= 0 then
    match Window.find cs.pending_assignment.(i) d.d_lseq with
    | seq ->
      store_message t cs ~seq d;
      if installed then note_have_advanced t cs
    | exception Not_found ->
      let buf = cs.data_buf.(i) in
      if not (Window.mem buf d.d_lseq) then begin
        Window.replace buf d.d_lseq d;
        if installed && i_am_coord t cs then
          coord_enqueue_order t cs ~sender:d.d_sender ~lseq:d.d_lseq
      end
  [@@analysis.hotpath "O(batch+members+queue)"]

let rec assign_entries t cs = function
  | [] -> ()
  | (seq, sender, lseq) :: rest ->
    if seq > cs.next_seq then cs.next_seq <- seq;
    if not (Window.mem cs.store seq) then assign t cs ~seq ~sender ~lseq;
    assign_entries t cs rest
  (* One assignment per entry of the one Order message. *)
  [@@analysis.cost "O(batch); alloc O(batch)"]

let handle_order t cs ~installed o_entries =
  assign_entries t cs o_entries;
  if installed then note_have_advanced t cs
  [@@analysis.hotpath "O(batch+members+queue)"]

let handle_ack t cs ~from ~upto =
  let i = member_index cs from in
  if i >= 0 && upto > cs.acks.(i) then begin
    cs.acks.(i) <- upto;
    recompute_safe cs;
    try_deliver t cs;
    evict cs
  end
  [@@analysis.hotpath "O(members+queue)"]

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

let send_in_conf t cs ~service ~size payload =
  cs.next_lseq <- cs.next_lseq + 1;
  let d =
    {
      d_conf = cs.cview.id;
      d_sender = t.node;
      d_lseq = cs.next_lseq;
      d_service = service;
      d_payload = payload;
      d_size = size;
    }
  in
  Hashtbl.replace cs.own_pending d.d_lseq (d, Engine.now t.engine);
  (* Local handling first (self-receipt), then the wire. *)
  handle_data t cs ~installed:true d;
  multicast_view t cs (Data d)

let send t ~service ~size payload =
  match (t.status, t.conf) with
  | Installed, Some cs -> send_in_conf t cs ~service ~size payload
  | Down, _ -> ()
  | _ -> t.outbox <- (service, size, payload) :: t.outbox

let drain_outbox t cs =
  let queued = List.rev t.outbox in
  t.outbox <- [];
  List.iter (fun (service, size, payload) -> send_in_conf t cs ~service ~size payload) queued

(* ------------------------------------------------------------------ *)
(* Membership: gather / propose / flush / install.                     *)

let rec start_gather t =
  match t.status with
  | Down | Gathering _ -> ()
  | Idle | Installed | Flushing _ ->
    let gs = { g_members = Node_id.Set.singleton t.node; g_token = 0; g_waiting_proposal = false } in
    dbg t "start_gather";
    set_status t (Gathering gs);
    t.early_flushes <- [];
    t.my_round <- t.my_round + 1;
    broadcast_component t (MGather { g_round = t.my_round; g_set = gs.g_members });
    arm_stability t gs

and arm_stability t gs =
  let era = t.era and token = gs.g_token in
  Engine.schedule t.engine ~delay:t.prm.gather_window (fun () ->
      if era = t.era && token = gs.g_token then gather_stable t gs)

and gather_stable t gs =
  match t.status with
  | Gathering gs' when gs' == gs ->
    if Node_id.equal (Node_id.Set.min_elt gs.g_members) t.node then begin
      (* I coordinate the new configuration. *)
      dbg t
        (Printf.sprintf "propose with %d members"
           (Node_id.Set.cardinal gs.g_members));
      let vid = Conf_id.{ coord = t.node; counter = next_counter t } in
      multicast_set t ~dsts:gs.g_members
        (MPropose { m_vid = vid; m_members = gs.g_members });
      enter_flushing t ~vid ~members:gs.g_members
    end
    else begin
      gs.g_waiting_proposal <- true;
      let era = t.era in
      Engine.schedule t.engine ~delay:t.prm.propose_timeout (fun () ->
          if era = t.era then
            match t.status with
            | Gathering gs' when gs' == gs && gs.g_waiting_proposal ->
              restart_gather t
            | _ -> ())
    end
  | _ -> ()

and restart_gather t =
  (* Force a fresh epidemic round (status must leave Gathering first). *)
  (match t.status with Gathering _ -> set_status t Idle | _ -> ());
  start_gather t

and merge_gather t ?(fresh = true) set' =
  match t.status with
  | Gathering gs ->
    let merged = Node_id.Set.union gs.g_members set' in
    if not (Node_id.Set.equal merged gs.g_members) then begin
      gs.g_members <- merged;
      gs.g_token <- gs.g_token + 1;
      gs.g_waiting_proposal <- false;
      broadcast_component t (MGather { g_round = t.my_round; g_set = merged });
      arm_stability t gs
    end
    else if fresh && not (Node_id.Set.equal merged set') then
      (* A newly started gatherer is missing members we know about:
         inform it (stale duplicates stay silent to avoid storms). *)
      broadcast_component t (MGather { g_round = t.my_round; g_set = merged })
  | _ ->
    start_gather t;
    merge_gather t ~fresh set'

and my_flush_record t =
  match t.conf with
  | None ->
    { fr_old_conf = None; fr_evicted = 0; fr_inventory = []; fr_delivered = 0 }
  | Some cs ->
    let inv = List.rev (Window.fold (fun seq _ acc -> seq :: acc) cs.store []) in
    {
      fr_old_conf = Some cs.cview.id;
      fr_evicted = Window.base cs.store;
      fr_inventory = inv;
      fr_delivered = cs.delivered_upto;
    }

and enter_flushing t ~vid ~members =
  let fs =
    {
      fl_vid = vid;
      fl_members = members;
      fl_coord = vid.Conf_id.coord;
      fl_records = Hashtbl.create 8;
      fl_retrans_sent = false;
      fl_ready_sent = false;
      fl_group = Node_id.Set.empty;
      fl_union_max = 0;
      fl_ready = Hashtbl.create 8;
    }
  in
  dbg t
    (Printf.sprintf "enter_flushing vid=%s members=%d" (Conf_id.to_string vid)
       (Node_id.Set.cardinal members));
  set_status t (Flushing fs);
  let record = my_flush_record t in
  Hashtbl.replace fs.fl_records t.node record;
  multicast_set t ~dsts:members
    (MFlush { f_vid = vid; f_from = t.node; f_record = record });
  (* Replay flush records that overtook the proposal. *)
  let stashed = t.early_flushes in
  t.early_flushes <- [];
  List.iter
    (fun (v, from, r) ->
      if Conf_id.equal v vid then Hashtbl.replace fs.fl_records from r)
    stashed;
  (* Abandon on timeout: cascaded failures restart the gather. *)
  let era = t.era in
  Engine.schedule t.engine ~delay:t.prm.flush_timeout (fun () ->
      if era = t.era then
        match t.status with
        | Flushing fs' when fs' == fs ->
          dbg t
            (Printf.sprintf "flush timeout vid=%s (records %d/%d)"
               (Conf_id.to_string fs.fl_vid)
               (Hashtbl.length fs.fl_records)
               (Node_id.Set.cardinal fs.fl_members));
          restart_gather t
        | _ -> ());
  check_flush t fs

and flush_records_complete fs =
  Node_id.Set.for_all (fun m -> Hashtbl.mem fs.fl_records m) fs.fl_members

(* Once all flush records are in: compute my old-configuration group, the
   deliverable union prefix, retransmit what peers miss and I am the
   lowest-id holder of, and report readiness once I hold everything I
   must deliver. *)
and check_flush t fs =
  if flush_records_complete fs then begin
    let my_old =
      match t.conf with Some cs -> Some cs.cview.id | None -> None
    in
    (match my_old with
    | None ->
      fs.fl_group <- Node_id.Set.singleton t.node;
      fs.fl_union_max <- 0
    | Some old_id ->
      let group =
        Node_id.Set.filter
          (fun m ->
            match Hashtbl.find_opt fs.fl_records m with
            | Some { fr_old_conf = Some c; _ } -> Conf_id.equal c old_id
            | _ -> false)
          fs.fl_members
      in
      fs.fl_group <- group;
      let records =
        Node_id.Set.elements group
        |> List.filter_map (fun m -> Hashtbl.find_opt fs.fl_records m)
      in
      let base =
        List.fold_left (fun acc r -> max acc r.fr_evicted) 0 records
      in
      let union = Hashtbl.create 256 in
      List.iter
        (fun r -> List.iter (fun s -> Hashtbl.replace union s ()) r.fr_inventory)
        records;
      let rec contiguous m =
        if Hashtbl.mem union (m + 1) || m + 1 <= base then contiguous (m + 1)
        else m
      in
      (* Guard: avoid counting below base. *)
      let max_deliverable = contiguous base in
      fs.fl_union_max <- max_deliverable;
      if not fs.fl_retrans_sent then begin
        fs.fl_retrans_sent <- true;
        match t.conf with
        | None -> ()
        | Some cs ->
          let needed_by_someone s =
            Node_id.Set.exists
              (fun m ->
                if Node_id.equal m t.node then false
                else
                  match Hashtbl.find_opt fs.fl_records m with
                  | Some r ->
                    s > r.fr_delivered && s > r.fr_evicted
                    && not (List.mem s r.fr_inventory)
                  | None -> false)
              group
          in
          let i_am_min_holder s =
            let holders =
              Node_id.Set.filter
                (fun m ->
                  match Hashtbl.find_opt fs.fl_records m with
                  | Some r -> List.mem s r.fr_inventory
                  | None -> false)
                group
            in
            (not (Node_id.Set.is_empty holders))
            && Node_id.equal (Node_id.Set.min_elt holders) t.node
          in
          let duties =
            Window.fold
              (fun s d acc ->
                if
                  s <= max_deliverable && needed_by_someone s
                  && i_am_min_holder s
                then (s, d) :: acc
                else acc)
              cs.store []
            |> List.rev
          in
          if duties <> [] then
            multicast_set t ~dsts:group
              (MRetrans { r_vid = fs.fl_vid; r_entries = duties })
      end);
    (* Readiness: I hold every message I still have to deliver. *)
    let ready =
      match t.conf with
      | None -> true
      | Some cs ->
        let rec holds s =
          s > fs.fl_union_max
          || (Window.mem cs.store s && holds (s + 1))
        in
        holds (cs.delivered_upto + 1)
    in
    if ready && not fs.fl_ready_sent then begin
      fs.fl_ready_sent <- true;
      if Node_id.equal t.node fs.fl_coord then begin
        Hashtbl.replace fs.fl_ready t.node ();
        coord_check_install t fs
      end
      else unicast t ~dst:fs.fl_coord (MReady { y_vid = fs.fl_vid; y_from = t.node })
    end
  end

and coord_check_install t fs =
  let all_ready =
    Node_id.Set.for_all (fun m -> Hashtbl.mem fs.fl_ready m) fs.fl_members
  in
  if all_ready then begin
    multicast_set t ~dsts:fs.fl_members
      (MInstall { i_vid = fs.fl_vid; i_members = fs.fl_members });
    install t fs
  end

(* Install the new regular configuration: transitional configuration
   first (old-configuration members continuing together), then the
   leftover messages that could not be safe-delivered, then the new
   regular configuration. *)
and install t fs =
  t.on_burst_start ();
  (match t.conf with
  | Some cs ->
    let trans_members = Node_id.Set.inter fs.fl_group fs.fl_members in
    t.on_event (Trans_conf { id = cs.cview.id; members = trans_members });
    let rec deliver_leftovers s =
      if s <= fs.fl_union_max then
        match Window.find cs.store s with
        | d ->
          cs.delivered_upto <- s;
          t.on_event
            (Deliver
               {
                 sender = d.d_sender;
                 payload = d.d_payload;
                 conf = d.d_conf;
                 seq = s;
                 in_regular = false;
               });
          deliver_leftovers (s + 1)
        | exception Not_found -> () (* hole: nothing beyond is deliverable *)
    in
    deliver_leftovers (cs.delivered_upto + 1)
  | None -> ());
  dbg t
    (Printf.sprintf "install %s (%d members)" (Conf_id.to_string fs.fl_vid)
       (Node_id.Set.cardinal fs.fl_members));
  let new_view = { id = fs.fl_vid; members = fs.fl_members } in
  set_status t Installed;
  let cs = new_conf_state t new_view in
  t.conf <- Some cs;
  t.installed_count <- t.installed_count + 1;
  let now = Engine.now t.engine in
  Node_id.Set.iter (fun m -> Node_id.Tbl.replace t.last_heard m now) new_view.members;
  t.on_event (Reg_conf new_view);
  t.on_burst_end ();
  drain_outbox t cs

(* ------------------------------------------------------------------ *)
(* Wire dispatch                                                       *)

let conf_matches cs conf_id = Conf_id.equal cs.cview.id conf_id

let handle_wire t ~src msg =
  match t.status with
  | Down -> ()
  | status -> (
    Node_id.Tbl.replace t.last_heard src (Engine.now t.engine);
    match msg with
    | Data d -> (
      match t.conf with
      | Some cs when conf_matches cs d.d_conf ->
        handle_data t cs ~installed:(status = Installed) d
      | _ -> ())
    | Order { o_conf; o_entries } -> (
      match t.conf with
      | Some cs when conf_matches cs o_conf ->
        handle_order t cs ~installed:(status = Installed) o_entries
      | _ -> ())
    | Ack { a_conf; a_upto } -> (
      match (status, t.conf) with
      | Installed, Some cs when conf_matches cs a_conf ->
        handle_ack t cs ~from:src ~upto:a_upto
      | _ -> ())
    | Heartbeat _ -> ()
    | Probe { p_conf } -> (
      match (status, t.conf) with
      | Installed, Some cs
        when (not (Conf_id.equal cs.cview.id p_conf))
             || not (Node_id.Set.mem src cs.cview.members) ->
        (* A reachable node in a different configuration: merge. *)
        start_gather t
      | _ -> ())
    | MGather { g_round; g_set } -> (
      let seen =
        match Hashtbl.find_opt t.gather_rounds src with Some r -> r | None -> 0
      in
      let fresh = g_round > seen in
      if fresh then Hashtbl.replace t.gather_rounds src g_round;
      match status with
      | Idle -> () (* not participating yet *)
      | Gathering _ -> merge_gather t ~fresh g_set
      | Installed | Flushing _ ->
        (* Only a genuinely new gather attempt interrupts; messages left
           over from the storm that produced this configuration are
           stale. *)
        if fresh then merge_gather t ~fresh g_set
      | Down -> ())
    | MPropose { m_vid; m_members } -> (
      match status with
      | Gathering gs ->
        (* Accept any proposal covering everything we gathered: a member
           whose proposal-wait timed out re-gathers from {self} and must
           still be able to board the proposal that then arrives late. *)
        if
          Node_id.Set.mem t.node m_members
          && Node_id.Set.subset gs.g_members m_members
        then enter_flushing t ~vid:m_vid ~members:m_members
        else merge_gather t m_members
      | Installed | Flushing _ -> merge_gather t m_members
      | Idle | Down -> ())
    | MFlush { f_vid; f_from; f_record } -> (
      match status with
      | Flushing fs when Conf_id.equal fs.fl_vid f_vid ->
        Hashtbl.replace fs.fl_records f_from f_record;
        check_flush t fs
      | Gathering _ ->
        if List.length t.early_flushes < 64 then
          t.early_flushes <- (f_vid, f_from, f_record) :: t.early_flushes
      | _ -> ())
    | MRetrans { r_vid; r_entries } -> (
      match (status, t.conf) with
      | Flushing fs, Some cs when Conf_id.equal fs.fl_vid r_vid ->
        List.iter
          (fun (seq, d) ->
            if not (Window.mem cs.store seq) then Window.replace cs.store seq d)
          r_entries;
        check_flush t fs
      | _ -> ())
    | MReady { y_vid; y_from } -> (
      match status with
      | Flushing fs
        when Conf_id.equal fs.fl_vid y_vid && Node_id.equal t.node fs.fl_coord ->
        Hashtbl.replace fs.fl_ready y_from ();
        coord_check_install t fs
      | _ -> ())
    | MInstall { i_vid; i_members = _ } -> (
      match status with
      | Flushing fs when Conf_id.equal fs.fl_vid i_vid -> install t fs
      | _ -> ())
    | Nack { k_conf; k_from; k_to } -> (
      match (status, t.conf) with
      | Installed, Some cs when conf_matches cs k_conf ->
        let entries =
          List.filter_map
            (fun seq ->
              match Window.find cs.store seq with
              | d -> Some (seq, d)
              | exception Not_found -> None)
            (List.init (max 0 (k_to - k_from + 1)) (fun i -> k_from + i))
        in
        if entries <> [] then
          unicast t ~dst:src (Repair { q_conf = k_conf; q_entries = entries })
      | _ -> ())
    | Repair { q_conf; q_entries } -> (
      match (status, t.conf) with
      | Installed, Some cs when conf_matches cs q_conf ->
        List.iter
          (fun (seq, d) ->
            if not (Window.mem cs.store seq) then store_message t cs ~seq d)
          q_entries;
        note_have_advanced t cs
      | _ -> ()))

(* ------------------------------------------------------------------ *)
(* Periodic duties: heartbeats, failure detection, merge probing.      *)

let arm_periodic t =
  match t.periodic with
  | Some tick -> Engine.schedule t.engine ~delay:t.prm.fd_check_interval tick
  | None -> ()

(* One tick every [fd_check_interval], on a closure built by the first
   [join]. *)
let periodic t =
  (match (t.status, t.conf) with
  | Installed, Some cs ->
    let now = Engine.now t.engine in
    (* Heartbeat if we have been silent. *)
    if
      Time.(Time.diff now (Time.min now t.last_sent)
            >= t.prm.heartbeat_interval)
    then multicast_view t cs (Heartbeat { h_conf = cs.cview.id });
    (* Suspect silent members. *)
    let suspect =
      Node_id.Set.exists
        (fun m ->
          (not (Node_id.equal m t.node))
          &&
          match Node_id.Tbl.find_opt t.last_heard m with
          | Some heard -> Time.(Time.diff now heard > t.prm.fd_timeout)
          | None -> true)
        cs.cview.members
    in
    if suspect then start_gather t
    else begin
      (* Loss recovery: ask for ordered messages we lack, and
         resend own messages the sequencer never ordered. *)
      if cs.have_upto < cs.next_seq then begin
        let upper = min cs.next_seq (cs.have_upto + 64) in
        unicast t ~dst:cs.coord
          (Nack
             { k_conf = cs.cview.id; k_from = cs.have_upto + 1; k_to = upper })
      end;
      Hashtbl.filter_map_inplace
        (fun _ ((d, sent_at) as pending) ->
          if Time.(Time.diff now (Time.min now sent_at) > t.prm.fd_timeout)
          then begin
            multicast_view t cs (Data d);
            Some (d, now)
          end
          else Some pending)
        cs.own_pending
    end;
    if (not suspect) &&
      i_am_coord t cs
      && Time.(Time.diff now (Time.min now t.last_probe)
               >= t.prm.probe_interval)
    then begin
      t.last_probe <- now;
      broadcast_component t (Probe { p_conf = cs.cview.id })
    end
  | _ -> ());
  arm_periodic t

let create ?(on_burst_start = fun () -> ()) ?(on_burst_end = fun () -> ())
    ~network ~params ~node ~on_event () =
  let t =
    {
      net = network;
      engine = Network.engine network;
      prm = params;
      node;
      on_event;
      on_burst_start;
      on_burst_end;
      status = Idle;
      conf = None;
      outbox = [];
      early_flushes = [];
      counter = 0;
      my_round = 0;
      gather_rounds = Hashtbl.create 16;
      era = 0;
      last_heard = Node_id.Tbl.create 16;
      last_sent = Time.zero;
      last_probe = Time.zero;
      installed_count = 0;
      periodic = None;
    }
  in
  Network.register network node ~handler:(fun ~src msg -> handle_wire t ~src msg);
  t

let join t =
  match t.status with
  | Idle ->
    if t.periodic = None then begin
      t.periodic <- Some (fun () -> periodic t);
      arm_periodic t
    end;
    start_gather t
  | _ -> ()

let crash t =
  set_status t Down;
  t.conf <- None;
  t.outbox <- [];
  t.early_flushes <- [];
  Node_id.Tbl.reset t.last_heard;
  Network.set_up t.net t.node false

let recover t =
  match t.status with
  | Down ->
    Network.set_up t.net t.node true;
    set_status t Idle;
    join t
  | _ -> ()
