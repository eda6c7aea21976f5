module Sim = Repro_sim
open Repro_net
open Repro_gcs
open Repro_db
open Types

let log_src = Logs.Src.create "repro.engine" ~doc:"replication engine"

module Log = (val Logs.src_log log_src)

type callbacks = {
  on_green : Action.t array -> unit;
  on_red : Action.t -> unit;
  on_transfer_request : joiner:Node_id.t -> unit;
  on_self_leave : unit -> unit;
  send : service:Endpoint.service -> size:int -> payload -> unit;
  on_resync : unit -> unit;
}

type buffered_request = {
  bq_client : int;
  bq_semantics : Action.semantics;
  bq_size : int;
  bq_kind : Action.kind;
  bq_req_seq : int;
  bq_req_ack : int;
  bq_on_created : Action.Id.t -> unit;
}

type stats = {
  mutable s_exchanges : int;
  mutable s_installs : int;
  mutable s_retrans_batches : int;
  mutable s_actions_resent : int;
  mutable s_submit_batches : int;
  mutable s_batched_submissions : int;
}

(* Audit events: a structured feed of the engine's protocol-level
   decisions, consumed by the repcheck invariant monitor (lib/check).
   Unlike [callbacks], which drive the application, the audit feed is
   observational only — emitting it must never change behaviour. *)
type audit_event =
  | Audit_state of engine_state  (** state-machine transition *)
  | Audit_quorum of {
      aq_members : Node_id.Set.t;  (** candidate set (the view) *)
      aq_vulnerable : Node_id.Set.t;
          (** members whose knowledge-computed vulnerable record is
              still valid at decision time *)
      aq_prev_prim : prim_component;  (** quorum is taken against this *)
      aq_granted : bool;
    }  (** an [IsQuorum] evaluation at the end of a state exchange *)
  | Audit_install of prim_component  (** a primary component installed *)

(* The marks of one delivery burst, in mark order, in a buffer reused
   from burst to burst: marking allocates nothing once the buffer has
   grown to the largest burst. *)
type marks = { mutable m_buf : Action.t array; mutable m_len : int }

type t = {
  sim : Sim.Engine.t;
  node : Node_id.t;
  persist : Persist.t;
  quorum : Quorum.rule;
  stats : stats;
  cb : callbacks;
  mutable state : engine_state;
  mutable halted : bool;
  queue : Action_queue.t;
  red_cut : int Node_id.Tbl.t;
  green_counts : int Node_id.Tbl.t;
      (* per known server: a green count it is known to hold durably *)
  pending_red : Action.t Int_tbl.t Node_id.Tbl.t; (* per creator, by index *)
  mutable pending_green : (int * Action.t) list;
  (* own undelivered actions: [ongoing_front] oldest first, then
     [ongoing_back] newest first *)
  mutable ongoing_front : Action.t list;
  mutable ongoing_back : Action.t list;
  mutable action_index : int;
  red_marks : marks; (* the burst's red marks, in mark order *)
  green_marks : marks;
  mutable burst_depth : int; (* delivery-burst nesting, 0 = flushed *)
  yellow_ids : unit Action.Id.Tbl.t; (* membership index over [yellow_rev] *)
  mutable known_servers : Node_id.Set.t;
  mutable prim : prim_component;
  mutable vulnerable : vulnerable;
  mutable attempt : int;
  (* the yellow record, its set kept newest first so that marking an
     action yellow is a cons; [yellow] puts it in delivery order *)
  mutable yellow_valid : bool;
  mutable yellow_rev : Action.Id.t list;
  (* per-configuration state *)
  mutable conf : Endpoint.view option;
  mutable states : state_msg Node_id.Map.t;
  mutable knowledge : Knowledge.t option;
  mutable exchange_done : bool;
  mutable cpc_received : Node_id.Set.t;
  mutable pending_cpcs : (Node_id.t * Conf_id.t * bool) list;
  mutable buffered : buffered_request list; (* newest first *)
  mutable era : int; (* bumped on every view event; guards sync continuations *)
  mutable audit : (audit_event -> unit) option;
  mutable input : (payload Endpoint.event -> unit) option;
}

let set_audit ?input t f =
  t.audit <- Some f;
  t.input <- input
let emit_audit t ev = match t.audit with Some f -> f ev | None -> ()

let node t = t.node
let state t = t.state
let halted t = t.halted
let green_count t = Action_queue.green_count t.queue
let green_actions t = Action_queue.greens_from t.queue 0
let red_actions t = Action_queue.red_actions t.queue
let red_count t = Action_queue.red_count t.queue
let green_line t = Action_queue.green_line t.queue
let ongoing_actions t = t.ongoing_front @ List.rev t.ongoing_back
let attempt t = t.attempt
let action_index t = t.action_index
(* [find] with [Not_found], not [find_opt]: a cut is read on every
   delivered action, and an option box per read would be its only
   allocation. *)
let red_cut t s = match Node_id.Tbl.find t.red_cut s with c -> c | exception Not_found -> 0

let green_cut_map t = Action_queue.green_cut_map t.queue

let red_cut_map t =
  Node_id.Tbl.fold (fun s c acc -> Node_id.Map.add s c acc) t.red_cut
    Node_id.Map.empty
let known_servers t = t.known_servers
let prim_component t = t.prim
let vulnerable t = t.vulnerable
let yellow t = { y_valid = t.yellow_valid; y_set = List.rev t.yellow_rev }

let in_primary t =
  (not t.halted)
  &&
  match t.state with
  | Reg_prim | Trans_prim -> true
  | Exchange_states | Exchange_actions | Construct | No_state | Un_state
  | Non_prim -> false

let white_line t =
  Node_id.Set.fold
    (fun s acc ->
      let c =
        match Node_id.Tbl.find t.green_counts s with
        | c -> c
        | exception Not_found -> 0
      in
      min acc c)
    t.known_servers (Action_queue.green_count t.queue)

let set_state t s =
  if t.state <> s then begin
    Log.debug (fun m ->
        m "n%d: %a -> %a" t.node pp_engine_state t.state pp_engine_state s);
    t.state <- s;
    emit_audit t (Audit_state s)
  end

let meta_of t =
  {
    m_prim = t.prim;
    m_vulnerable = t.vulnerable;
    m_attempt = t.attempt;
    m_yellow = yellow t;
    m_servers = t.known_servers;
  }

let log_meta t = Persist.log_meta t.persist (meta_of t)

(* Sync to disk, then continue — unless the configuration changed (the
   paper's process would still be blocked inside fsync when the view
   change arrives; the continuation is then obsolete). *)
let sync_then_era t k =
  let era = t.era in
  Persist.sync t.persist (fun () -> if era = t.era && not t.halted then k ())

let sync_then t k = Persist.sync t.persist (fun () -> if not t.halted then k ())

let send_payload t ~service p =
  t.cb.send ~service ~size:(payload_size p) p

(* [yellow] is replaced wholesale at view events; keep the membership
   index (used on the per-delivery hot path of transitional
   configurations) in step. *)
let set_yellow t y =
  t.yellow_valid <- y.y_valid;
  t.yellow_rev <- List.rev y.y_set;
  Action.Id.Tbl.reset t.yellow_ids;
  List.iter (fun id -> Action.Id.Tbl.replace t.yellow_ids id ()) y.y_set

(* ------------------------------------------------------------------ *)
(* Group commit (delivery bursts)                                      *)

(* Slots past [m_len] keep the previous burst's actions until overwritten. *)
let push_mark m a =
  if m.m_len = Array.length m.m_buf then begin
    let buf = Array.make (Int.max 16 (2 * m.m_len)) a in
    Array.blit m.m_buf 0 buf 0 m.m_len;
    m.m_buf <- buf
  end;
  m.m_buf.(m.m_len) <- a;
  m.m_len <- m.m_len + 1
  (* Amortized: the buffer doubles, so each copied slot is paid for by
     the mark that outgrew it. *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* Red and green marks accumulate while a delivery burst is processed
   and are flushed as one multi-record log frame per colour — red
   before green, so every green mark's body precedes it in the log —
   plus a single application callback for the whole green batch (one
   apply, one cache invalidation, one response sweep downstream).
   Durability semantics are unchanged: marks were never individually
   forced, and no disk or network event can interleave with a burst
   (it is synchronous within one simulation event). *)
let flush_marks t =
  let reds = t.red_marks and greens = t.green_marks in
  if reds.m_len > 0 then begin
    Persist.log_red_marks t.persist (Array.sub reds.m_buf 0 reds.m_len);
    reds.m_len <- 0
  end;
  if greens.m_len > 0 then begin
    (* One copy serves the log frame and the application alike. *)
    let batch = Array.sub greens.m_buf 0 greens.m_len in
    greens.m_len <- 0;
    Persist.log_green_marks t.persist batch;
    t.cb.on_green batch
  end
  [@@analysis.hotpath "O(batch+queue)"]

let begin_burst t = t.burst_depth <- t.burst_depth + 1

let end_burst t =
  t.burst_depth <- t.burst_depth - 1;
  if t.burst_depth <= 0 then begin
    t.burst_depth <- 0;
    flush_marks t
  end

(* ------------------------------------------------------------------ *)
(* The ongoing queue (paper A.13): own actions not yet delivered back   *)

(* A two-list FIFO: appends cons onto [ongoing_back], and removals pop
   [ongoing_front], refilled by one reversal of the back once it runs
   dry — so each entry is copied at most once on its way through. *)
let push_ongoing t a = t.ongoing_back <- a :: t.ongoing_back

let set_ongoing t actions =
  t.ongoing_front <- actions;
  t.ongoing_back <- []

(* Per-creator FIFO delivers own actions in creation order, so the
   delivered one is normally the oldest entry.  Only a duplicate that
   overtakes older entries after a recovery (a resent copy of an entry
   that is not at the head) falls back to filtering the whole queue. *)
let remove_ongoing t (a : Action.t) =
  (match t.ongoing_front with
  | [] -> set_ongoing t (List.rev t.ongoing_back)
  | _ :: _ -> ());
  match t.ongoing_front with
  | o :: rest when Action.Id.equal o.Action.id a.id -> t.ongoing_front <- rest
  | [] -> ()
  | _ :: _ ->
    let keep (o : Action.t) = not (Action.Id.equal o.id a.id) in
    t.ongoing_front <- List.filter keep t.ongoing_front;
    t.ongoing_back <- List.filter keep t.ongoing_back

(* ------------------------------------------------------------------ *)
(* Marking (paper CodeSegments A.14 and 5.1)                           *)

let note_own_green t pos = Node_id.Tbl.replace t.green_counts t.node pos

(* OR-1.1: a green action tells us its creator's green count when it was
   created — durable there, since the action was sent only after the
   force covering its creation.  Every server's count therefore reaches
   us with its own traffic, and the white line advances in steady state
   instead of only at view changes. *)
let note_green_count t server count =
  match Node_id.Tbl.find t.green_counts server with
  | c -> if count > c then Node_id.Tbl.replace t.green_counts server count
  | exception Not_found -> Node_id.Tbl.replace t.green_counts server count

(* MarkRed.  Returns [true] when the action is newly accepted; gaps are
   buffered until the missing predecessors arrive (retransmissions from
   different duty holders may interleave).  [green]: the caller greens
   the action in the same step (RegPrim's MarkRed then MarkGreen), so
   it gets its red cut, red log record, [on_red] and ongoing-queue pop
   but never enters the red region it would leave at once. *)
let rec mark_red ?(green = false) t (a : Action.t) =
  let creator = a.id.server in
  let cut = red_cut t creator in
  (* Never mint an action id below one already seen with our creator
     stamp: after a salvaged or amnesiac recovery, copies of our old
     incarnation's actions may still arrive from peers, and reusing
     their indices would collide with them. *)
  if Node_id.equal creator t.node && a.id.index > t.action_index then
    t.action_index <- a.id.index;
  if a.id.index = cut + 1 then begin
    Node_id.Tbl.replace t.red_cut creator (cut + 1);
    push_mark t.red_marks a;
    if not green then Action_queue.add_red t.queue a;
    if Node_id.equal creator t.node then remove_ongoing t a;
    t.cb.on_red a;
    drain_pending_red t creator;
    true
  end
  else if a.id.index <= cut then begin
    (* Duplicate delivery.  After recovery our own undelivered actions
       are already red (A.13) yet stay on the ongoing queue for
       resending; the delivery of a resent copy is the signal that it
       is ordered and the queue entry can go. *)
    if Node_id.equal creator t.node then remove_ongoing t a;
    false
  end
  else begin
    let tbl =
      match Node_id.Tbl.find t.pending_red creator with
      | tbl -> tbl
      | exception Not_found ->
        let tbl = Int_tbl.create 8 in
        Node_id.Tbl.replace t.pending_red creator tbl;
        tbl
    in
    Int_tbl.replace tbl a.id.index a;
    false
  end
  (* Mutually recursive with [drain_pending_red]: each drained action is
     removed from its pending table, so the pair does one queue-bounded
     sweep per contiguous run — the analysis sees only the recursion.
     Allocation is constant: [remove_ongoing] pops the head, and its
     whole-queue filter runs only for an out-of-order duplicate after a
     recovery. *)
  [@@analysis.cost "O(queue); alloc O(1)"]

and drain_pending_red t creator =
  match Node_id.Tbl.find t.pending_red creator with
  | exception Not_found -> ()
  | tbl -> (
    let next = red_cut t creator + 1 in
    match Int_tbl.find tbl next with
    | a ->
      Int_tbl.remove tbl next;
      ignore (mark_red t a)
    | exception Not_found -> ())

(* MarkGreen, including the dynamic-reconfiguration handling of
   PERSISTENT_JOIN / PERSISTENT_LEAVE (CodeSegment 5.1). *)
let mark_green t (a : Action.t) =
  (* Already green when at or below its creator's green cut — including
     an id greened below a snapshot join floor, which this queue never
     held: re-appending such a copy would fork the total order against
     replicas that remember the original position. *)
  let green = not (Action_queue.is_green t.queue a.id) in
  ignore (mark_red ~green t a);
  if green then begin
    (* FIFO per creator makes green prefixes per creator contiguous; a
       green marking can therefore never jump over a missing red. *)
    if a.id.index > red_cut t a.id.server then
      invalid_arg "Engine.mark_green: gap below a green action";
    let pos = Action_queue.append_green t.queue a in
    push_mark t.green_marks a;
    note_own_green t pos;
    (match a.kind with
    | Action.Join joiner when not (Node_id.Set.mem joiner t.known_servers) ->
      t.known_servers <- Node_id.Set.add joiner t.known_servers;
      Node_id.Tbl.replace t.green_counts joiner pos;
      log_meta t;
      if Node_id.equal a.id.server t.node then
        t.cb.on_transfer_request ~joiner
    | Action.Join _ -> () (* duplicate announcement: first one counted *)
    | Action.Leave leaver when Node_id.Set.mem leaver t.known_servers ->
      t.known_servers <- Node_id.Set.remove leaver t.known_servers;
      log_meta t;
      if Node_id.equal leaver t.node then begin
        t.halted <- true;
        t.cb.on_self_leave ()
      end
    | Action.Leave _ -> ()
    | Action.Query _ | Action.Update _ | Action.Read_write _
    | Action.Active _ | Action.Interactive _ -> ())
  end

let mark_yellow t (a : Action.t) =
  ignore (mark_red t a);
  if
    (not (Action_queue.is_green t.queue a.id))
    && not (Action.Id.Tbl.mem t.yellow_ids a.id)
  then begin
    t.yellow_rev <- a.id :: t.yellow_rev;
    Action.Id.Tbl.replace t.yellow_ids a.id ()
  end

(* ------------------------------------------------------------------ *)
(* Install (paper CodeSegment A.10)                                    *)

let install t =
  t.stats.s_installs <- t.stats.s_installs + 1;
  Log.info (fun m ->
      m "n%d: installing primary %d (attempt %d, %d members)" t.node
        (t.prim.prim_index + 1) t.attempt
        (Node_id.Set.cardinal t.vulnerable.v_set));
  if t.yellow_valid then
    List.iter
      (fun id ->
        match Action_queue.find t.queue id with
        | Some a -> mark_green t a (* OR-1.2; greens have no body here *)
        | None -> ())
      (List.rev t.yellow_rev);
  set_yellow t invalid_yellow;
  t.prim <-
    {
      prim_index = t.prim.prim_index + 1;
      prim_attempt = t.attempt;
      prim_servers = t.vulnerable.v_set;
    };
  t.attempt <- 0;
  emit_audit t (Audit_install t.prim);
  let reds =
    List.sort
      (fun a b -> Action.Id.compare a.Action.id b.Action.id)
      (Action_queue.red_actions t.queue)
  in
  List.iter (mark_green t) reds; (* OR-2 *)
  log_meta t;
  sync_then t (fun () -> ())
  (* Greens every yellow and red once; each marked action leaves the
     corresponding set, and install runs once per primary installation,
     not per delivered message. *)
  [@@analysis.cost "O(queue); alloc O(queue)"]

(* ------------------------------------------------------------------ *)
(* Client requests (paper A.1/A.2 Client_req, A.8)                     *)

(* The record is built here rather than by [Action.make]: passing its
   optional arguments would box each one on every submission. *)
let create_action t r =
  t.action_index <- t.action_index + 1;
  let a =
    {
      Action.id = { Action.Id.server = t.node; index = t.action_index };
      client = r.bq_client;
      kind = r.bq_kind;
      semantics = r.bq_semantics;
      green_count = Action_queue.green_count t.queue;
      size = r.bq_size;
      req_seq = r.bq_req_seq;
      req_ack = r.bq_req_ack;
    }
  in
  push_ongoing t a;
  r.bq_on_created a.id;
  a

let send_actions t actions =
  match actions with
  | [] -> ()
  | _ -> send_payload t ~service:Endpoint.Safe (Action_batch actions)

(* One submission batch end to end: the requests become one
   ongoing-queue log frame, one covering force, and one ordered
   [Action_batch].  A lone request is a batch of one. *)
let submit_batch t requests =
  let actions = List.map (create_action t) requests in
  Persist.log_ongoing_batch t.persist actions;
  t.stats.s_submit_batches <- t.stats.s_submit_batches + 1;
  t.stats.s_batched_submissions <-
    t.stats.s_batched_submissions + List.length actions;
  sync_then t (fun () -> send_actions t actions)
  (* Per request: one action record, one ongoing-queue cons and one log
     record; only the force and the multicast scan anything else. *)
  [@@analysis.hotpath "O(batch+members+queue)"]

let submit t ~client ~semantics ~size ~req_seq ~req_ack ~kind ~on_created =
  if not t.halted then begin
    let r =
      {
        bq_client = client;
        bq_semantics = semantics;
        bq_size = size;
        bq_kind = kind;
        bq_req_seq = req_seq;
        bq_req_ack = req_ack;
        bq_on_created = on_created;
      }
    in
    match t.state with
    | Reg_prim | Non_prim -> submit_batch t [ r ]
    | Trans_prim | Exchange_states | Exchange_actions | Construct | No_state
    | Un_state ->
      t.buffered <- r :: t.buffered
  end

(* Actions created here but never delivered back (the group
   communication drops unordered messages at a view change) are re-sent
   from the ongoing queue after every exchange — as one batch, since
   their log records are durable by now; duplicate deliveries are shed
   by the red-cut check in MarkRed. *)
let resend_ongoing t =
  let actions = ongoing_actions t in
  t.stats.s_actions_resent <- t.stats.s_actions_resent + List.length actions;
  send_actions t actions

let handle_buffered t =
  let requests = List.rev t.buffered in
  t.buffered <- [];
  if requests <> [] then submit_batch t requests

(* ------------------------------------------------------------------ *)
(* State exchange (paper A.4, A.5, A.6, A.7)                           *)

let my_state_msg t conf_id =
  {
    sm_server = t.node;
    sm_conf = conf_id;
    sm_red_cut = red_cut_map t;
    sm_green_count = Action_queue.green_count t.queue;
    sm_green_line = Action_queue.green_line t.queue;
    sm_green_floor = Action_queue.green_floor t.queue;
    sm_attempt = t.attempt;
    sm_prim = t.prim;
    sm_vulnerable = t.vulnerable;
    sm_yellow = yellow t;
  }

let is_quorum t knowledge members =
  let vulnerable_present =
    Node_id.Set.exists
      (fun m ->
        match Node_id.Map.find_opt m knowledge.Knowledge.k_vulnerable with
        | Some v -> v.v_valid
        | None -> false)
      members
  in
  Quorum.policy_quorum t.quorum.policy ~weights:t.quorum.weights
    ~prev:knowledge.Knowledge.k_prim.prim_servers ~all:t.known_servers
    ~vulnerable_present members

let retrans_batch = 32
let retrans_pace = Sim.Time.of_ms 1.

(* Send one retransmission batch per pacing tick; abandon on view change. *)
let rec send_paced t payloads =
  match payloads with
  | [] -> ()
  | payload :: rest ->
    t.stats.s_retrans_batches <- t.stats.s_retrans_batches + 1;
    send_payload t ~service:Endpoint.Agreed payload;
    if rest <> [] then begin
      let era = t.era in
      Sim.Engine.schedule t.sim ~delay:retrans_pace (fun () ->
          if era = t.era && not t.halted then send_paced t rest)
    end

let rec shift_to_exchange_states t =
  t.states <- Node_id.Map.empty;
  t.knowledge <- None;
  t.exchange_done <- false;
  t.cpc_received <- Node_id.Set.empty;
  t.pending_cpcs <- [];
  t.stats.s_exchanges <- t.stats.s_exchanges + 1;
  set_state t Exchange_states;
  log_meta t;
  match t.conf with
  | None -> ()
  | Some view ->
    sync_then_era t (fun () ->
        send_payload t ~service:Endpoint.Agreed
          (State_msg (my_state_msg t view.Endpoint.id)))

and check_all_states t =
  match t.conf with
  | None -> ()
  | Some view ->
    if
      Node_id.Set.for_all
        (fun m -> Node_id.Map.mem m t.states)
        view.Endpoint.members
    then begin
      let knowledge = Knowledge.compute ~members:view.Endpoint.members t.states in
      if
        Knowledge.stranded ~green_count:(Action_queue.green_count t.queue)
          knowledge t.states
      then begin
        (* No member holds the bodies above our green count: they were
           white, and discarded.  Halting silences this engine's pending
           continuations; the replica re-enters by state transfer. *)
        t.halted <- true;
        t.cb.on_resync ()
      end
      else begin
        t.knowledge <- Some knowledge;
        (* Retransmit my share: green segments of the plan, then red duties
           ("if most updated server: Retrans()").  Batched and paced: a
           long-partitioned member may need thousands of actions, and an
           unthrottled burst would clog receivers' CPUs long enough to trip
           their failure detectors (a livelock a real engine avoids with
           flow-controlled state transfer). *)
        let green_batches =
          List.concat_map
            (fun (source, from_pos, to_pos) ->
              if Node_id.equal source t.node then begin
                let rec batches pos acc =
                  if pos >= to_pos then List.rev acc
                  else begin
                    let upper = min to_pos (pos + retrans_batch) in
                    let actions =
                      List.init (upper - pos) (fun i ->
                          Action_queue.nth_green t.queue (pos + 1 + i))
                    in
                    batches upper
                      (Retrans_green { g_from = pos; g_actions = actions }
                      :: acc)
                  end
                in
                batches from_pos []
              end
              else [])
            knowledge.Knowledge.k_green_plan
        in
        let duties =
          Knowledge.red_duties ~self:t.node ~knowledge ~states:t.states
        in
        let red_actions =
          List.concat_map
            (fun (creator, low, high) ->
              List.filter_map
                (fun index ->
                  (* Red bodies only: green bodies travel via the green
                     plan. *)
                  Action_queue.find t.queue
                    { Action.Id.server = creator; index })
                (List.init (high - low) (fun i -> low + 1 + i)))
            duties
        in
        let rec red_batches = function
          | [] -> []
          | actions ->
            let batch = List.filteri (fun i _ -> i < retrans_batch) actions in
            let rest =
              List.filteri (fun i _ -> i >= retrans_batch) actions
            in
            Retrans_red batch :: red_batches rest
        in
        send_paced t (green_batches @ red_batches red_actions);
        set_state t Exchange_actions;
        check_end_of_retrans t
      end
    end

and check_end_of_retrans t =
  if t.state = Exchange_actions && not t.exchange_done then
    match t.knowledge with
    | Some knowledge
      when Knowledge.exchange_finished
             ~green_count:(Action_queue.green_count t.queue)
             ~red_cut:(red_cut t) knowledge ->
      t.exchange_done <- true;
      end_of_retrans t knowledge
    | Some _ | None -> ()

and end_of_retrans t knowledge =
  match t.conf with
  | None -> ()
  | Some view ->
    (* Incorporate the exchanged green counts. *)
    Node_id.Map.iter
      (fun m sm -> note_green_count t m sm.sm_green_count)
      t.states;
    (* Adopt the computed knowledge. *)
    t.prim <- knowledge.Knowledge.k_prim;
    t.attempt <- knowledge.Knowledge.k_attempt;
    set_yellow t knowledge.Knowledge.k_yellow;
    (match Node_id.Map.find_opt t.node knowledge.Knowledge.k_vulnerable with
    | Some v -> t.vulnerable <- v
    | None -> ());
    let granted = is_quorum t knowledge view.Endpoint.members in
    emit_audit t
      (Audit_quorum
         {
           aq_members = view.Endpoint.members;
           aq_vulnerable =
             Node_id.Set.filter
               (fun m ->
                 match
                   Node_id.Map.find_opt m knowledge.Knowledge.k_vulnerable
                 with
                 | Some v -> v.v_valid
                 | None -> false)
               view.Endpoint.members;
           aq_prev_prim = knowledge.Knowledge.k_prim;
           aq_granted = granted;
         });
    if granted then begin
      t.attempt <- t.attempt + 1;
      t.vulnerable <-
        {
          v_valid = true;
          v_prim_index = t.prim.prim_index;
          v_attempt = t.attempt;
          v_set = view.Endpoint.members;
          v_bits = Node_id.Set.empty;
        };
      log_meta t;
      sync_then_era t (fun () ->
          resend_ongoing t;
          send_payload t ~service:Endpoint.Safe
            (Cpc { cpc_server = t.node; cpc_conf = view.Endpoint.id });
          set_state t Construct;
          replay_pending_cpcs t)
    end
    else begin
      log_meta t;
      sync_then_era t (fun () ->
          set_state t Non_prim;
          resend_ongoing t;
          handle_buffered t)
    end

(* ------------------------------------------------------------------ *)
(* Construct / No / Un (paper A.9, A.11, A.12)                         *)

and note_cpc t server ~in_regular =
  t.cpc_received <- Node_id.Set.add server t.cpc_received;
  if in_regular && t.vulnerable.v_valid then
    t.vulnerable <-
      { t.vulnerable with v_bits = Node_id.Set.add server t.vulnerable.v_bits }

and all_cpcs_in t =
  match t.conf with
  | None -> false
  | Some view -> Node_id.Set.subset view.Endpoint.members t.cpc_received

and on_cpc t server conf_id ~in_regular =
  match t.conf with
  | Some view when Conf_id.equal view.Endpoint.id conf_id -> (
    match t.state with
    | Construct ->
      note_cpc t server ~in_regular;
      if all_cpcs_in t then begin
        (* Everyone synchronised during the exchange: after install all
           members share this green line (A.9). *)
        let my_count = Action_queue.green_count t.queue in
        Node_id.Set.iter
          (fun s -> Node_id.Tbl.replace t.green_counts s my_count)
          view.Endpoint.members;
        install t;
        set_state t Reg_prim;
        handle_buffered t
      end
    | No_state ->
      note_cpc t server ~in_regular;
      if all_cpcs_in t then set_state t Un_state
    | Exchange_actions ->
      (* A CPC can overtake our own end-of-retrans disk sync; it belongs
         to this configuration and is replayed on entering Construct. *)
      t.pending_cpcs <- (server, conf_id, in_regular) :: t.pending_cpcs
    | Exchange_states | Reg_prim | Trans_prim | Un_state | Non_prim -> ())
  | Some _ | None -> () (* a CPC of a configuration we already left *)

and replay_pending_cpcs t =
  let pending = List.rev t.pending_cpcs in
  t.pending_cpcs <- [];
  List.iter
    (fun (server, conf_id, in_regular) -> on_cpc t server conf_id ~in_regular)
    pending

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)

let on_action t (a : Action.t) ~in_regular =
  match t.state with
  | Reg_prim ->
    assert in_regular;
    mark_green t a;
    note_green_count t a.id.server a.green_count
  | Trans_prim -> mark_yellow t a
  | Un_state ->
    (* 1b: someone installed the primary and generated this action before
       the cascading failure; act as if installing too (A.12). *)
    install t;
    mark_yellow t a;
    set_state t Trans_prim
  | Non_prim | Exchange_states | Exchange_actions -> ignore (mark_red t a)
  | Construct | No_state ->
    (* Total order makes this unreachable (actions are ordered after the
       CPCs that precede them); accept defensively as red. *)
    ignore (mark_red t a)
  [@@analysis.hotpath "O(batch+members+queue)"]

let rec on_retrans_green t g_index (a : Action.t) =
  let count = Action_queue.green_count t.queue in
  if g_index = count + 1 then begin
    mark_green t a;
    (* Drain any buffered successors. *)
    let next = Action_queue.green_count t.queue + 1 in
    match List.assoc_opt next t.pending_green with
    | Some a' ->
      t.pending_green <- List.remove_assoc next t.pending_green;
      on_retrans_green t next a'
    | None -> check_end_of_retrans t
  end
  else if g_index > count + 1 then
    t.pending_green <- (g_index, a) :: t.pending_green
  else check_end_of_retrans t (* duplicate *)

(* Most deliveries carry a batch of one: walking it without a
   [List.iter] closure keeps the common case allocation-free at every
   replica. *)
let rec on_actions t actions ~in_regular =
  match actions with
  | [] -> ()
  | a :: rest ->
    on_action t a ~in_regular;
    on_actions t rest ~in_regular

let on_retrans_red t a =
  ignore (mark_red t a);
  check_end_of_retrans t

let on_state_msg t sm =
  match t.state with
  | Exchange_states -> (
    match t.conf with
    | Some view when Conf_id.equal view.Endpoint.id sm.sm_conf ->
      t.states <- Node_id.Map.add sm.sm_server sm t.states;
      check_all_states t
    | Some _ | None -> ())
  | Reg_prim | Trans_prim | Exchange_actions | Construct | No_state | Un_state
  | Non_prim -> ()

let on_trans_conf t =
  t.era <- t.era + 1;
  match t.state with
  | Reg_prim -> set_state t Trans_prim
  | Construct -> set_state t No_state
  | Exchange_states | Exchange_actions -> set_state t Non_prim
  | Trans_prim | No_state | Un_state | Non_prim -> ()

let on_reg_conf t view =
  t.era <- t.era + 1;
  t.conf <- Some view;
  (match t.state with
  | Trans_prim ->
    (* A.3: the installed primary's epoch ended; yellow knowledge becomes
       transferable, the installation attempt is durably resolved. *)
    t.vulnerable <- invalid_vulnerable;
    t.yellow_valid <- true
  | No_state ->
    (* Nobody can have installed: every server lacked some CPC (A.11). *)
    t.vulnerable <- invalid_vulnerable
  | Un_state | Non_prim | Reg_prim | Exchange_states | Exchange_actions
  | Construct -> ());
  shift_to_exchange_states t

(* Every event is its own (innermost) delivery burst: marks flush at the
   end even when the engine is driven without a group-commit wrapper
   (model checker, direct tests).  When the GCS endpoint brackets a
   multi-event burst with [begin_burst]/[end_burst], the per-event flush
   defers to the outer bracket. *)
let handle_delivery t ~sender ~conf ~seq ~in_regular payload =
  if not t.halted then begin
    (match t.input with
    | Some f -> f (Endpoint.Deliver { sender; payload; conf; seq; in_regular })
    | None -> ());
    begin_burst t;
    (match payload with
    | Action_batch actions -> on_actions t actions ~in_regular
    | Retrans_green { g_from; g_actions } ->
      List.iteri (fun i a -> on_retrans_green t (g_from + 1 + i) a) g_actions
    | Retrans_red actions -> List.iter (on_retrans_red t) actions
    | State_msg sm -> on_state_msg t sm
    | Cpc { cpc_server; cpc_conf } -> on_cpc t cpc_server cpc_conf ~in_regular);
    end_burst t
  end

let handle_conf t event =
  if not t.halted then begin
    (match t.input with Some f -> f event | None -> ());
    begin_burst t;
    (match event with
    | Endpoint.Reg_conf view -> on_reg_conf t view
    | Endpoint.Trans_conf _ -> on_trans_conf t
    | Endpoint.Deliver _ -> invalid_arg "Engine.handle_conf: a delivery");
    end_burst t
  end

let handle_event t = function
  | Endpoint.Deliver d ->
    handle_delivery t ~sender:d.sender ~conf:d.conf ~seq:d.seq
      ~in_regular:d.in_regular d.payload
  | (Endpoint.Trans_conf _ | Endpoint.Reg_conf _) as event -> handle_conf t event

(* ------------------------------------------------------------------ *)
(* Construction and recovery                                           *)

let make_blank ~quorum ~sim ~node ~servers ~persist ~callbacks () =
  {
    sim;
    node;
    persist;
    quorum;
    stats =
      {
        s_exchanges = 0;
        s_installs = 0;
        s_retrans_batches = 0;
        s_actions_resent = 0;
        s_submit_batches = 0;
        s_batched_submissions = 0;
      };
    cb = callbacks;
    state = Non_prim;
    halted = false;
    queue = Action_queue.create ();
    red_cut = Node_id.Tbl.create 16;
    green_counts = Node_id.Tbl.create 16;
    pending_red = Node_id.Tbl.create 16;
    pending_green = [];
    ongoing_front = [];
    ongoing_back = [];
    action_index = 0;
    red_marks = { m_buf = [||]; m_len = 0 };
    green_marks = { m_buf = [||]; m_len = 0 };
    burst_depth = 0;
    yellow_ids = Action.Id.Tbl.create 64;
    known_servers = servers;
    prim = initial_prim ~servers;
    vulnerable = invalid_vulnerable;
    attempt = 0;
    yellow_valid = false;
    yellow_rev = [];
    conf = None;
    states = Node_id.Map.empty;
    knowledge = None;
    exchange_done = false;
    cpc_received = Node_id.Set.empty;
    pending_cpcs = [];
    buffered = [];
    era = 0;
    audit = None;
    input = None;
  }

let create ~quorum ~sim ~node ~servers ~persist ~callbacks () =
  let t = make_blank ~quorum ~sim ~node ~servers ~persist ~callbacks () in
  log_meta t;
  t

let stats t = t.stats

let create_from_snapshot ~quorum ?(action_floor = 0) ~sim ~node ~servers
    ~snapshot ~green_count ~green_line ~red_cut ~prim ~dedup ~persist
    ~callbacks () =
  let t = make_blank ~quorum ~sim ~node ~servers ~persist ~callbacks () in
  (* An amnesiac rejoiner must not re-mint action ids its previous life
     used: start counting from the sponsor's red cut for this node, or
     from the floor recovered from still-readable log records when that
     is higher.  In the latter case the ids between the two are known
     only to the dead incarnation; since per-creator delivery is
     gap-free, they are re-proposed as no-op fillers (bodies lost) so
     peers can advance past them. *)
  let own_cut =
    match Node_id.Map.find_opt node red_cut with Some c -> c | None -> 0
  in
  t.action_index <- max action_floor own_cut;
  for index = own_cut + 1 to action_floor do
    let filler =
      Action.make ~client:0 ~size:32 ~server:node ~index (Action.Update [])
    in
    Persist.log_ongoing_batch t.persist [ filler ];
    push_ongoing t filler
  done;
  Action_queue.set_join_floor t.queue ~count:green_count ~line:green_line
    ~cut:red_cut;
  Node_id.Map.iter (fun s c -> Node_id.Tbl.replace t.red_cut s c) red_cut;
  t.prim <- prim;
  Node_id.Tbl.replace t.green_counts node green_count;
  (* The transferred state is this replica's first checkpoint: crash
     recovery restores it from disk rather than replaying actions it
     never held. *)
  Persist.log_checkpoint t.persist
    {
      Persist.c_snapshot = snapshot;
      c_green_count = green_count;
      c_green_line = green_line;
      c_green_cut = red_cut;
      c_meta = meta_of t;
      c_dedup = dedup;
    };
  sync_then t (fun () -> ());
  t

let recover ~quorum ?recovered ~sim ~node ~servers ~persist ~callbacks () =
  let r =
    match recovered with
    | Some r -> r
    | None -> Persist.recover ~self:node persist
  in
  let t = make_blank ~quorum ~sim ~node ~servers ~persist ~callbacks () in
  (match r.Persist.r_meta with
  | Some m ->
    t.prim <- m.m_prim;
    t.vulnerable <- m.m_vulnerable;
    t.attempt <- m.m_attempt;
    set_yellow t m.m_yellow;
    t.known_servers <- m.m_servers
  | None -> ());
  (match r.Persist.r_checkpoint with
  | Some c ->
    Action_queue.set_join_floor t.queue ~count:c.Persist.c_green_count
      ~line:c.Persist.c_green_line ~cut:c.Persist.c_green_cut;
    Node_id.Tbl.replace t.green_counts node c.Persist.c_green_count
  | None -> ());
  (* Rebuild the queue without firing application callbacks: the caller
     replays the returned green prefix into its database itself. *)
  List.iter
    (fun a ->
      note_own_green t (Action_queue.append_green t.queue a))
    r.Persist.r_green;
  List.iter (fun a -> Action_queue.add_red t.queue a) r.Persist.r_red;
  Node_id.Map.iter (fun s c -> Node_id.Tbl.replace t.red_cut s c) r.Persist.r_red_cut;
  t.action_index <- r.Persist.r_action_index;
  (* A.13: re-inject own undelivered actions as red AND keep them on
     the ongoing queue, so [resend_ongoing] re-proposes them after the
     next exchange.  (mark_red pops own actions off the queue when they
     are newly accepted, so the queue is restored afterwards; the
     duplicate delivery of a resent copy drains it.) *)
  List.iter (fun a -> ignore (mark_red t a)) r.Persist.r_ongoing;
  set_ongoing t r.Persist.r_ongoing;
  (* The re-injected reds accumulated as marks; recovery runs outside
     any delivery burst, so flush their log frame here.  (No greens can
     accumulate: the queue above was rebuilt without [mark_green].) *)
  flush_marks t;
  log_meta t;
  sync_then t (fun () -> ());
  (t, r.Persist.r_checkpoint, r.Persist.r_green)

(* A durable checkpoint: the caller supplies the database snapshot taken
   at the current green position; the log is then compacted and white
   action bodies (green everywhere) are dropped from memory. *)
let checkpoint t ~dedup snapshot =
  Persist.log_checkpoint t.persist
    {
      Persist.c_snapshot = snapshot;
      c_green_count = Action_queue.green_count t.queue;
      c_green_line = Action_queue.green_line t.queue;
      c_green_cut = green_cut_map t;
      c_meta = meta_of t;
      c_dedup = dedup;
    };
  sync_then t (fun () ->
      Persist.compact t.persist;
      ignore (Action_queue.discard_below t.queue (white_line t)))
