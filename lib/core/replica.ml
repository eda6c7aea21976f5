module Sim = Repro_sim
open Repro_net
open Repro_gcs
open Repro_storage
open Repro_db

let log_src = Logs.Src.create "repro.replica" ~doc:"replication server"

module Log = (val Logs.src_log log_src)

(* A transfer version: deterministic replicas hold identical databases at
   the same green position, so (green position, digest) identifies the
   snapshot content independently of which sponsor serves it — a resumed
   transfer can continue from a *different* sponsor (paper §5.1,
   "continue its update"). *)
type transfer_version = { tv_green_count : int; tv_digest : int }

type transfer_payload = {
  td_green_line : Action.Id.t option;
  td_red_cut : int Node_id.Map.t;
  td_prim : Types.prim_component;
  td_servers : Node_id.Set.t;
  td_snapshot : Database.snapshot;
  td_joiner_floor : int;
      (* the sponsor's red cut for the joiner: an amnesiac rejoiner
         resumes action numbering above everything the group has seen
         from its previous life *)
  td_dedup : Dedup.snapshot;
      (* the sponsor's exactly-once window at the same green position
         as td_snapshot: the joiner must suppress retries of requests
         applied before it existed *)
}

type transfer_msg =
  | Treq of {
      tr_joiner : Node_id.t;
      tr_resume : (transfer_version * int) option;
          (** version + chunks already received *)
    }
  | Tchunk of {
      tc_version : transfer_version;
      tc_index : int;  (** 0-based *)
      tc_total : int;
      tc_payload : transfer_payload option;  (** carried by the last chunk *)
    }

type cluster = {
  c_sim : Sim.Engine.t;
  c_topology : Topology.t;
  c_net : Types.payload Endpoint.wire Network.t;
  c_transfer : transfer_msg Network.t;
  c_params : Params.t;
}

let make_cluster ?(net_config = Network.lan_gigabit) ?(params = Params.default)
    ?(seed = 11) ~nodes () =
  let c_sim = Sim.Engine.create ~seed () in
  let c_topology = Topology.create ~nodes in
  let c_net = Network.create ~engine:c_sim ~topology:c_topology ~config:net_config () in
  let c_transfer =
    Network.create ~engine:c_sim ~topology:c_topology ~config:net_config ()
  in
  { c_sim; c_topology; c_net; c_transfer; c_params = params }

let cluster_sim c = c.c_sim
let cluster_topology c = c.c_topology

type role =
  | Static  (** member of the initial server set *)
  | Joiner of Node_id.t list  (** sponsors, asked in turn *)

(* Admission control: shed a submission with [Action.Busy] — before it
   is created, logged or ordered — once this replica's backlog crosses
   either threshold.  Both are local quantities, so the gate is cheap
   and needs no coordination. *)
type admission = {
  adm_max_inflight : int;
      (* own strict submissions awaiting their green response *)
  adm_max_red : int;  (* ordered-but-not-yet-green backlog *)
}

type t = {
  cluster : cluster;
  node_id : Node_id.t;
  servers : Node_id.Set.t; (* initial set (static) or empty (joiner) *)
  role : role;
  disk_config : Disk.config;
  mutable disk : Disk.t;
  mutable persist : Persist.t;
  mutable engine : Engine.t option; (* joiners have none until transferred *)
  mutable endpoint : Types.payload Endpoint.t option;
  mutable db : Database.t;
  procs : Procedure.registry;
      (* this instance's stored procedures — code, not data: survives
         crash (unlike [db], procedures are configuration, so a restart
         of the same replica value still knows them) and is never
         shared with another engine in the process *)
  mutable dirty_cache : (int * int * Database.t) option;
      (* (db version, red count) -> cached dirty copy *)
  cpu : Sim.Resource.t option;
  pending : (Action.response -> unit) Action.Id.Tbl.t;
  transfer_sessions : (Node_id.t, unit) Hashtbl.t;
  mutable up : bool;
  mutable started : bool;
  mutable joiner_waiting : bool;
  mutable transfer_chunks_sent : int;
  mutable incoming : (transfer_version * int) option;
      (* joiner: version being received + contiguous chunks received *)
  quorum : Quorum.rule; (* given to every engine this replica builds *)
  checkpoint_every : int option;
  mutable greens_since_checkpoint : int;
  mutable query_waiters : (unit -> unit) list; (* awaiting own-action drain *)
  mutable greens_applied : int;
  mutable actions_submitted : int;
  dedup_window : int;
  mutable dedup : Dedup.t;
      (* replicated exactly-once state: mutated only on the green apply
         path, reset on crash, restored from checkpoints and transfer
         snapshots (it is a function of the green prefix) *)
  admission : admission option;
  mutable dupes_suppressed : int;
      (* retried-but-already-applied requests answered from the dedup
         cache instead of re-executing (recovery replay included) *)
  mutable shed : int; (* submissions answered [Busy] by admission *)
  mutable left : bool;
  mutable audit : (Engine.audit_event -> unit) option;
  mutable input : (Types.payload Endpoint.event -> unit) option;
      (* both re-attached to every engine this replica creates *)
  mutable proc_hook : (Executor.procedure_trace -> unit) option;
      (* observes every executed procedure's actual key accesses
         (green apply, red answer, dirty reads, recovery replay);
         Check.Procguard validates them against declared footprints *)
  mutable incarnation : int;
      (* bumped on crash: volatile state was lost, so observers must not
         hold this replica to monotonicity across the boundary *)
  mutable last_recovery : Persist.verdict option;
  mutable amnesia_floor : int;
      (* highest own action index readable in the discarded log of an
         amnesiac recovery; seeds the next incarnation's id counter *)
      (* what the most recent recovery from stable storage decided *)
}

let node t = t.node_id
let database t = t.db
let procedures t = t.procs
let register_procedure ?footprint t name body =
  Procedure.register ?footprint t.procs name body

let set_procedure_hook t h = t.proc_hook <- Some h

let engine t =
  match t.engine with
  | Some e -> e
  | None -> invalid_arg "Replica.engine: joiner not yet transferred"

let state t =
  match t.engine with Some e -> Engine.state e | None -> Types.Non_prim

let in_primary t = match t.engine with Some e -> Engine.in_primary e | None -> false
let is_ready t = t.engine <> None && t.up && not t.left
let is_up t = t.up
let incarnation t = t.incarnation
let last_recovery t = t.last_recovery
let corrupt_log t ~nth = Persist.corrupt_nth t.persist nth
let greens_applied t = t.greens_applied
let log_entries t = Persist.entries_logged t.persist
let log_flushes t = Disk.flushes (Persist.disk t.persist)

let cpu_stats t =
  match t.cpu with
  | Some cpu ->
    Some (Sim.Resource.queue_length cpu, Sim.Resource.busy_time cpu)
  | None -> None
let transfer_chunks_sent t = t.transfer_chunks_sent
let actions_submitted t = t.actions_submitted
let dupes_suppressed t = t.dupes_suppressed
let shed t = t.shed
let dedup_window t = t.dedup_window
let dedup_max_cached t = Dedup.max_cached t.dedup
let dedup_summary t = Dedup.summary t.dedup

(* ------------------------------------------------------------------ *)
(* Engine callbacks                                                    *)

(* Install a freshly created engine, re-attaching the audit sinks (the
   repcheck monitor survives crash/recovery and joiner instantiation). *)
let adopt_engine t e =
  (match t.audit with Some f -> Engine.set_audit ?input:t.input e f | None -> ());
  t.engine <- Some e

let set_audit ?input t f =
  t.audit <- Some f;
  t.input <- input;
  match t.engine with Some e -> Engine.set_audit ?input e f | None -> ()

let checkpoint_now t =
  match t.engine with
  | None -> ()
  | Some e ->
    t.greens_since_checkpoint <- 0;
    Engine.checkpoint e ~dedup:(Dedup.snapshot t.dedup)
      (Database.snapshot t.db)

let flush_query_waiters t =
  if Action.Id.Tbl.length t.pending = 0 && t.query_waiters <> [] then begin
    let waiters = List.rev t.query_waiters in
    t.query_waiters <- [];
    List.iter (fun k -> k ()) waiters
  end
  (* Each waiter is a parked weak query, bounded by the in-flight
     request queue; the list is consumed as it is flushed. *)
  [@@analysis.cost "O(queue); alloc O(queue)"]

(* Execute one green action with exactly-once suppression.  Every path
   that applies greens — live apply, recovery replay — goes through
   here, so the dedup decision is a pure function of the green prefix
   and identical on every replica and across restarts.  A duplicate (a
   retried copy of a request some earlier copy already applied) is
   answered from the bounded response cache; once the client's ack
   low-water evicted the entry no legitimate retry can still want it,
   so the stray copy gets [Aborted]. *)
let execute_green t (a : Action.t) =
  match Dedup.check t.dedup ~client:a.Action.client ~seq:a.Action.req_seq with
  | Dedup.Duplicate cached ->
    t.dupes_suppressed <- t.dupes_suppressed + 1;
    Dedup.observe_ack t.dedup ~client:a.Action.client ~ack:a.Action.req_ack;
    (match cached with Some r -> r | None -> Action.Aborted)
  | Dedup.Fresh ->
    let response =
      Executor.execute ?on_procedure:t.proc_hook ~procs:t.procs t.db a
    in
    Dedup.record t.dedup ~client:a.Action.client ~seq:a.Action.req_seq
      ~ack:a.Action.req_ack response;
    response

(* Group-committed apply: one delivery burst's green actions execute
   back to back against the database, with the per-burst bookkeeping
   (dirty-cache invalidation, query-waiter flush, checkpoint cadence)
   paid once instead of per action. *)
let apply_green_batch t (actions : Action.t list) =
  let n = List.length actions in
  t.greens_applied <- t.greens_applied + n;
  t.dirty_cache <- None;
  List.iter
    (fun (a : Action.t) ->
      let response = execute_green t a in
      if Node_id.equal a.Action.id.server t.node_id then
        match Action.Id.Tbl.find_opt t.pending a.Action.id with
        | Some k ->
          Action.Id.Tbl.remove t.pending a.Action.id;
          k response
        | None -> ())
    actions;
  flush_query_waiters t;
  match t.checkpoint_every with
  | Some cadence ->
    t.greens_since_checkpoint <- t.greens_since_checkpoint + n;
    if t.greens_since_checkpoint >= cadence then checkpoint_now t
  | None -> ()
  (* members: the checkpoint record carries the per-member green cut. *)
  [@@analysis.hotpath "O(batch+members+queue+log)"]

let apply_red t (a : Action.t) =
  t.dirty_cache <- None;
  (* Commutative-semantics actions answer at first local application:
     their effect is order-insensitive, so the final state converges
     (paper §6). *)
  if
    a.Action.semantics = Action.Commutative
    && Node_id.equal a.Action.id.server t.node_id
  then
    match Action.Id.Tbl.find_opt t.pending a.Action.id with
    | Some k ->
      Action.Id.Tbl.remove t.pending a.Action.id;
      (* A retried copy of an already-green request must not observe a
         double-application even through the early red answer. *)
      if Dedup.is_applied t.dedup ~client:a.Action.client ~seq:a.Action.req_seq
      then begin
        t.dupes_suppressed <- t.dupes_suppressed + 1;
        k
          (match
             Dedup.check t.dedup ~client:a.Action.client ~seq:a.Action.req_seq
           with
          | Dedup.Duplicate (Some r) -> r
          | Dedup.Duplicate None | Dedup.Fresh -> Action.Aborted)
      end
      else
        (* The response is computed against the dirty state. *)
        k
          (Executor.execute ?on_procedure:t.proc_hook ~procs:t.procs
             (Database.copy t.db) a)
    | None -> ()

let transfer_chunk_bytes = 65_536

(* Stream the snapshot in fixed-size chunks starting at [from_chunk]; the
   final chunk carries the metadata + snapshot value (the earlier chunks
   model the bulk bytes on the wire). *)
let do_transfer ?(from_chunk = 0) t ~joiner =
  match t.engine with
  | None -> ()
  | Some e ->
    let snapshot = Database.snapshot t.db in
    let size = Database.snapshot_size snapshot in
    let total = max 1 ((size + transfer_chunk_bytes - 1) / transfer_chunk_bytes) in
    let version =
      { tv_green_count = Engine.green_count e; tv_digest = Database.digest t.db }
    in
    let payload =
      {
        td_green_line = Engine.green_line e;
        td_red_cut = Engine.green_cut_map e;
        td_prim = Engine.prim_component e;
        td_servers = Engine.known_servers e;
        td_snapshot = snapshot;
        td_joiner_floor = Engine.red_cut e joiner;
        td_dedup = Dedup.snapshot t.dedup;
      }
    in
    (* Paced at roughly line rate: streaming, not a burst — a crash or
       partition interrupts the transfer partway, which the joiner then
       resumes elsewhere. *)
    let rec send_chunk index =
      if t.up && (not t.left) && index < total then begin
        t.transfer_chunks_sent <- t.transfer_chunks_sent + 1;
        let last = index = total - 1 in
        let chunk_size =
          if last then size - (index * transfer_chunk_bytes)
          else transfer_chunk_bytes
        in
        Network.unicast t.cluster.c_transfer ~src:t.node_id ~dst:joiner
          ~size:(max 64 chunk_size)
          (Tchunk
             {
               tc_version = version;
               tc_index = index;
               tc_total = total;
               tc_payload = (if last then Some payload else None);
             });
        if not last then
          Sim.Engine.schedule t.cluster.c_sim ~delay:(Sim.Time.of_ms 5.)
            (fun () -> send_chunk (index + 1))
      end
    in
    send_chunk (max 0 from_chunk)

let on_transfer_request t ~joiner =
  if Hashtbl.mem t.transfer_sessions joiner then begin
    Hashtbl.remove t.transfer_sessions joiner;
    do_transfer t ~joiner
  end

(* ------------------------------------------------------------------ *)
(* Rejoining by state transfer                                         *)

(* How long a joiner waits for a sponsor's snapshot before asking the
   next sponsor. *)
let transfer_retry = Sim.Time.of_ms 500.

let rec joiner_request_loop t sponsors_left all_sponsors =
  if t.up && t.joiner_waiting && t.engine = None then begin
    let sponsor, rest =
      match sponsors_left with
      | s :: rest -> (s, rest)
      | [] -> (
        match all_sponsors with
        | s :: rest -> (s, rest)
        | [] -> invalid_arg "Replica.create_joiner: no sponsors")
    in
    Network.unicast t.cluster.c_transfer ~src:t.node_id ~dst:sponsor ~size:64
      (Treq { tr_joiner = t.node_id; tr_resume = t.incoming });
    Sim.Engine.schedule t.cluster.c_sim ~delay:transfer_retry (fun () ->
        joiner_request_loop t rest all_sponsors)
  end

(* Amnesiac recovery (the log's foundation is gone) and resync: discard
   local state and re-enter through the §5.1 join/state-transfer path.
   The incarnation is bumped (after a crash, a second time beyond the
   crash bump) — the new life's counters must never be compared against
   the old one's — and the engine stays absent until a sponsor's
   snapshot arrives, exactly as for a first-time joiner.  The sponsors
   already count this node among the known servers, so they transfer
   directly (CodeSegment 5.1, line 21) without re-ordering a Join
   action. *)
let amnesiac_rejoin t =
  Log.info (fun m -> m "n%d: rejoining by state transfer" t.node_id);
  t.incarnation <- t.incarnation + 1;
  t.incoming <- None;
  let sponsors =
    match t.role with
    | Joiner sponsors -> sponsors
    | Static -> Node_id.Set.elements (Node_id.Set.remove t.node_id t.servers)
  in
  if sponsors = [] then
    (* Nobody to transfer from: a lone replica with a destroyed log is
       unrecoverable; it stays down rather than invent an empty state. *)
    t.up <- false
  else begin
    t.joiner_waiting <- true;
    joiner_request_loop t sponsors sponsors
  end

(* Volatile state a crash or a resync loses. *)
let drop_volatile t =
  Action.Id.Tbl.reset t.pending;
  t.query_waiters <- [];
  Hashtbl.reset t.transfer_sessions;
  t.db <- Database.create ();
  t.dedup <- Dedup.create ~window:t.dedup_window ();
  t.dirty_cache <- None;
  t.engine <- None

(* A state exchange found [e]'s green prefix below every body the group
   still holds, and [e] has halted ([Engine.callbacks.on_resync]).  Leave
   the group, discard the log and re-enter through the amnesiac
   state-transfer path; the ids [e] minted seed the next incarnation's
   counter so none is minted twice.  Deferred one event, like a
   transfer request, so the halted engine's delivery burst completes
   first. *)
let resync t e =
  let current = match t.engine with Some e' -> e' == e | None -> false in
  if t.up && (not t.left) && current then begin
    Log.info (fun m ->
        m "n%d: green prefix unservable, resyncing by state transfer"
          t.node_id);
    t.amnesia_floor <- max t.amnesia_floor (Engine.action_index e);
    (match t.endpoint with Some ep -> Endpoint.crash ep | None -> ());
    Persist.reset t.persist;
    drop_volatile t;
    amnesiac_rejoin t
  end

let make_callbacks t =
  {
    Engine.on_green = (fun actions -> apply_green_batch t actions);
    on_red = (fun a -> apply_red t a);
    on_transfer_request =
      (fun ~joiner ->
        (* The request fires inside a delivery burst, where green marks
           may be ahead of the database (applies run at burst end).
           Defer the capture one event so snapshot and green count are
           taken from the same consistent instant. *)
        Sim.Engine.schedule t.cluster.c_sim ~delay:Sim.Time.zero (fun () ->
            on_transfer_request t ~joiner));
    on_self_leave =
      (fun () ->
        t.left <- true;
        match t.endpoint with Some ep -> Endpoint.crash ep | None -> ());
    send =
      (fun ~service ~size payload ->
        match t.endpoint with
        | Some ep -> Endpoint.send ep ~service ~size payload
        | None -> ());
    on_resync =
      (fun () ->
        match t.engine with
        | Some e ->
          Sim.Engine.schedule t.cluster.c_sim ~delay:Sim.Time.zero
            (fun () -> resync t e)
        | None -> ());
  }

let make_endpoint t =
  let on_event event =
    match t.engine with Some e -> Engine.handle_event e event | None -> ()
  in
  let ep =
    Endpoint.create ~network:t.cluster.c_net ~params:t.cluster.c_params
      ~node:t.node_id ~on_event
      ~on_burst_start:(fun () ->
        match t.engine with Some e -> Engine.begin_burst e | None -> ())
      ~on_burst_end:(fun () ->
        match t.engine with Some e -> Engine.end_burst e | None -> ())
      ()
  in
  t.endpoint <- Some ep;
  ep

(* ------------------------------------------------------------------ *)
(* Transfer channel                                                    *)

let on_transfer_msg t ~src msg =
  if t.up && not t.left then
    match msg with
    | Treq { tr_joiner; tr_resume } -> (
      match t.engine with
      | None -> ()
      | Some e ->
        if Node_id.Set.mem tr_joiner (Engine.known_servers e) then begin
          (* The join is already ordered here: resume the transfer
             directly (paper CodeSegment 5.1, line 21) — and skip chunks
             the joiner already holds when our snapshot version matches
             (determinism makes snapshots at equal green positions
             identical across sponsors). *)
          let from_chunk =
            match tr_resume with
            | Some (v, have)
              when v.tv_green_count = Engine.green_count e
                   && v.tv_digest = Database.digest t.db ->
              have
            | _ -> 0
          in
          do_transfer ~from_chunk t ~joiner:tr_joiner
        end
        else begin
          (* Announce the newcomer (lines 17-19); transfer when green.
             The engine submits immediately in [Reg_prim]/[Non_prim] and
             buffers the request itself in every other state. *)
          Hashtbl.replace t.transfer_sessions tr_joiner ();
          Engine.submit e ~kind:(Action.Join tr_joiner)
            ~on_created:(fun _ -> ())
            ()
        end)
    | Tchunk { tc_version; tc_index; tc_total; tc_payload } ->
      if t.engine = None && t.joiner_waiting then begin
        ignore src;
        (* Contiguous reassembly; a version change restarts the count. *)
        let have =
          match t.incoming with
          | Some (v, have) when v = tc_version -> have
          | _ -> 0
        in
        if tc_index = have then begin
          t.incoming <- Some (tc_version, have + 1);
          match tc_payload with
          | Some p when have + 1 = tc_total ->
            t.joiner_waiting <- false;
            t.incoming <- None;
            t.db <- Database.of_snapshot p.td_snapshot;
            t.dedup <- Dedup.of_snapshot p.td_dedup;
            let e =
              Engine.create_from_snapshot ~quorum:t.quorum
                ~action_floor:(max p.td_joiner_floor t.amnesia_floor)
                ~sim:t.cluster.c_sim
                ~node:t.node_id ~servers:p.td_servers
                ~snapshot:p.td_snapshot
                ~green_count:tc_version.tv_green_count
                ~green_line:p.td_green_line ~red_cut:p.td_red_cut
                ~prim:p.td_prim ~dedup:p.td_dedup ~persist:t.persist
                ~callbacks:(make_callbacks t) ()
            in
            t.amnesia_floor <- 0;
            adopt_engine t e;
            let ep =
              (* as in [create]: installs the event handler; nothing is
                 multicast until the network delivers an event, so the
                 meta record the engine appended need not be forced yet.
                 repcheck: allow *)
              match t.endpoint with Some ep -> ep | None -> make_endpoint t
            in
            (* An amnesiac rejoiner's endpoint is still crashed; a fresh
               joiner's is idle.  [recover] revives the former (and
               no-ops on the latter), [join] starts the gather. *)
            Endpoint.recover ep;
            Endpoint.join ep
          | _ -> ()
        end
      end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let base ?(disk_config = Disk.default_forced) ?(attach_cpu = true)
    ?(checkpoint_every = Some 2000) ?(weights = Quorum.no_weights)
    ?(quorum_policy = Quorum.Dynamic_linear) ?(dedup_window = 8) ?admission
    ~cluster ~node ~servers ~role () =
  let disk = Disk.create ~engine:cluster.c_sim ~config:disk_config () in
  let persist = Persist.create ~engine:cluster.c_sim ~disk () in
  let cpu =
    if attach_cpu then begin
      let cpu = Sim.Resource.create cluster.c_sim in
      Network.attach_cpu cluster.c_net node cpu;
      Network.attach_cpu cluster.c_transfer node cpu;
      Some cpu
    end
    else None
  in
  let t =
    {
      cluster;
      node_id = node;
      servers;
      role;
      disk_config;
      disk;
      persist;
      engine = None;
      endpoint = None;
      db = Database.create ();
      procs = Procedure.builtins ();
      dirty_cache = None;
      cpu;
      pending = Action.Id.Tbl.create 32;
      transfer_sessions = Hashtbl.create 4;
      quorum = { policy = quorum_policy; weights };
      checkpoint_every;
      greens_since_checkpoint = 0;
      query_waiters = [];
      up = true;
      started = false;
      joiner_waiting = false;
      transfer_chunks_sent = 0;
      incoming = None;
      greens_applied = 0;
      actions_submitted = 0;
      dedup_window;
      dedup = Dedup.create ~window:dedup_window ();
      admission;
      dupes_suppressed = 0;
      shed = 0;
      left = false;
      audit = None;
      input = None;
      proc_hook = None;
      incarnation = 0;
      last_recovery = None;
      amnesia_floor = 0;
    }
  in
  Network.register cluster.c_transfer node ~handler:(fun ~src msg ->
      on_transfer_msg t ~src msg);
  t

let create ?disk_config ?attach_cpu ?checkpoint_every ?weights ?quorum_policy
    ?dedup_window ?admission ~cluster ~node ~servers () =
  let servers = Node_id.set_of_list servers in
  let t =
    base ?disk_config ?attach_cpu ?checkpoint_every ?weights ?quorum_policy
      ?dedup_window ?admission ~cluster ~node ~servers ~role:Static ()
  in
  let e =
    Engine.create ~quorum:t.quorum ~sim:cluster.c_sim ~node ~servers
      ~persist:t.persist ~callbacks:(make_callbacks t) ()
  in
  adopt_engine t e;
  (* installs the event handler; nothing is multicast until the network
     delivers an event, so the meta record Engine.create appended need
     not be forced yet.  repcheck: allow *)
  ignore (make_endpoint t);
  t

let create_joiner ?disk_config ?attach_cpu ?checkpoint_every ?quorum_policy
    ?dedup_window ?admission ~cluster ~node ~sponsors () =
  base ?disk_config ?attach_cpu ?checkpoint_every ?quorum_policy ?dedup_window
    ?admission ~cluster ~node ~servers:Node_id.Set.empty ~role:(Joiner sponsors) ()

let start t =
  if not t.started then begin
    t.started <- true;
    match t.role with
    | Static -> (
      match t.endpoint with Some ep -> Endpoint.join ep | None -> ())
    | Joiner sponsors ->
      t.joiner_waiting <- true;
      joiner_request_loop t sponsors sponsors
  end

(* ------------------------------------------------------------------ *)
(* Client interface                                                    *)

let overloaded t =
  match t.admission with
  | None -> false
  | Some adm ->
    Action.Id.Tbl.length t.pending >= adm.adm_max_inflight
    ||
    (match t.engine with
    | Some e -> Engine.red_count e >= adm.adm_max_red
    | None -> false)

let submit t ?(client = 1) ?(semantics = Action.Strict) ?(size = 200)
    ?(req_seq = 0) ?(req_ack = 0) kind ~on_response =
  match t.engine with
  | None -> ()
  | Some e ->
    if overloaded t then begin
      (* Shed before anything is created, logged or multicast: the
         request never enters the order, so [Busy] is a pure "try
         again" — no dedup entry, no side effect.  The callback fires
         synchronously, within the caller's submit. *)
      t.shed <- t.shed + 1;
      on_response Action.Busy
    end
    else begin
      t.actions_submitted <- t.actions_submitted + 1;
      Engine.submit e ~client ~semantics ~size ~req_seq ~req_ack ~kind
        ~on_created:(fun id -> Action.Id.Tbl.replace t.pending id on_response)
        ()
    end

let weak_query t keys = Database.read t.db keys

(* §6 query optimisation: a read-only transaction needs no global
   ordering — it is answered from the green state as soon as every
   earlier action *of this server* has been applied (session
   consistency), skipping the multicast and the forced write. *)
let local_query t keys ~on_response =
  let answer () = on_response (Database.read t.db keys) in
  if Action.Id.Tbl.length t.pending = 0 then answer ()
  else t.query_waiters <- answer :: t.query_waiters

let dirty_db t =
  match t.engine with
  | None -> t.db
  | Some e -> (
    (* Cache key in O(1): building the red list is deferred to a miss. *)
    let key = (Database.version t.db, Engine.red_count e) in
    match t.dirty_cache with
    | Some (v, r, cached) when (v, r) = key -> cached
    | _ ->
      let copy = Database.copy t.db in
      List.iter
        (fun (a : Action.t) ->
          (* Red copies of already-green requests must not double-apply
             even in the dirty view; read-only check, no recording (the
             dedup table only advances on the green path). *)
          if
            not
              (Dedup.is_applied t.dedup ~client:a.Action.client
                 ~seq:a.Action.req_seq)
          then
            ignore
              (Executor.execute ?on_procedure:t.proc_hook ~procs:t.procs copy
                 a))
        (Engine.red_actions e);
      t.dirty_cache <- Some (fst key, snd key, copy);
      copy)

let dirty_query t keys = Database.read (dirty_db t) keys

let leave t =
  match t.engine with
  | None -> ()
  | Some e -> Engine.submit e ~kind:(Action.Leave t.node_id) ~on_created:(fun _ -> ()) ()

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)

let crash t =
  if t.up then begin
    Log.info (fun m -> m "n%d: crash" t.node_id);
    t.up <- false;
    t.incarnation <- t.incarnation + 1;
    (match t.endpoint with Some ep -> Endpoint.crash ep | None -> ());
    Network.set_up t.cluster.c_transfer t.node_id false;
    Persist.crash t.persist;
    (match t.cpu with Some cpu -> Sim.Resource.reset cpu | None -> ());
    drop_volatile t
  end

let recover t =
  if (not t.up) && not t.left then begin
    t.up <- true;
    Network.set_up t.cluster.c_transfer t.node_id true;
    if t.joiner_waiting && t.engine = None then begin
      (* Crashed while still awaiting a snapshot (first join or amnesiac
         rejoin): there is no durable state to rebuild an engine from —
         restarting the transfer is the only sound continuation. *)
      t.last_recovery <- Some Persist.V_amnesia;
      amnesiac_rejoin t
    end
    else begin
    let r = Persist.recover ~self:t.node_id t.persist in
    t.last_recovery <- Some r.Persist.r_verdict;
    Log.info (fun m ->
        m "n%d: recovering from stable storage (%a)" t.node_id
          Persist.pp_verdict r.Persist.r_verdict);
    match r.Persist.r_verdict with
    | Persist.V_amnesia ->
      t.amnesia_floor <- max t.amnesia_floor r.Persist.r_action_index;
      amnesiac_rejoin t
    | Persist.V_clean | Persist.V_torn_tail _ | Persist.V_salvaged _ ->
      let e, ckpt, greens =
        Engine.recover ~quorum:t.quorum ~recovered:r ~sim:t.cluster.c_sim
          ~node:t.node_id ~servers:t.servers ~persist:t.persist
          ~callbacks:(make_callbacks t) ()
      in
      (* Rebuild the database and the exactly-once window from the
         latest durable checkpoint (they were captured at the same
         green position), then replay the green actions logged after it
         through the same dedup-aware path as live application. *)
      (match ckpt with
      | Some c ->
        t.db <- Database.of_snapshot c.Persist.c_snapshot;
        t.dedup <- Dedup.of_snapshot c.Persist.c_dedup
      | None ->
        t.db <- Database.create ();
        t.dedup <- Dedup.create ~window:t.dedup_window ());
      List.iter (fun a -> ignore (execute_green t a)) greens;
      t.greens_applied <- t.greens_applied + List.length greens;
      adopt_engine t e;
      let rejoin () =
        match t.endpoint with
        | Some ep -> if t.up && not t.left then Endpoint.recover ep
        | None -> ()
      in
      (* Transient read errors charged their backoff: the node comes
         back on the network only once the log has actually been read. *)
      if Sim.Time.to_us r.Persist.r_backoff > 0 then
        Sim.Engine.schedule t.cluster.c_sim ~delay:r.Persist.r_backoff rejoin
      else rejoin ()
    end
  end
