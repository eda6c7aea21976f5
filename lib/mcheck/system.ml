module Sim = Repro_sim
open Repro_net
open Repro_gcs
open Repro_storage
open Repro_db
open Repro_core
module Check = Repro_check

(* The system under test: one replication [Engine] per node, wired to the
   abstract EVS service ([Model]) instead of the timing-driven endpoint
   stack.  The checker drives it one {!Script.transition} at a time; each
   transition runs to quiescence (the simulation queue drains fully), so
   the only nondeterminism left is the choice of transition — exactly
   what the explorer branches on.

   Every transition is followed by the two oracles: the repcheck
   [Snapshot] sweep (instantaneous + step invariants over engine
   snapshots) and the abstract-spec conformance oracle ([Spec]), wired
   as each engine's input and audit sinks. *)

type node = {
  id : Node_id.t;
  persist : Persist.t;  (** survives crashes: the durable log *)
  mutable engine : Engine.t option;  (** [None] while crashed *)
  mutable incarnation : int;
}

type t = {
  policy : Quorum.policy;
  sim : Sim.Engine.t;
  model : Types.payload Model.t;
  topo : Topology.t;
  spec : Check.Spec.t;
  history : (Node_id.t, Check.Snapshot.node_snap) Hashtbl.t;
  nodes : node array;
  servers : Node_id.Set.t;
}

type result = {
  applied : bool;  (** the transition was enabled and ran *)
  appends : Conf_id.t list;
      (** configuration logs appended to — the DPOR footprint *)
  violations : Check.Snapshot.violation list;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Zero-latency forced writes: durability ordering is preserved (the
   sync callback still runs as a simulation event) but virtual time
   never advances, so fingerprints stay time-free. *)
let mc_disk_config =
  { Disk.default_forced with Disk.sync_latency = Sim.Time.zero; sync_jitter = 0. }

let callbacks t node_id =
  {
    Engine.on_green = (fun _ -> ());
    on_red = (fun _ -> ());
    on_transfer_request = (fun ~joiner:_ -> ());
    on_self_leave = (fun () -> ());
    send =
      (fun ~service:_ ~size:_ payload ->
        Model.send t.model ~from:node_id payload);
    on_resync = (fun () -> ());
  }

let attach_audit t nd e =
  Engine.set_audit e
    ~input:(Check.Spec.on_input t.spec ~node:nd.id)
    (Check.Spec.on_audit t.spec ~node:nd.id)

let drain t = ignore (Sim.Engine.drain t.sim)

let create ?(policy = Quorum.Dynamic_linear) ~nodes:n () =
  if n < 1 then invalid_arg "System.create: need at least one node";
  let ids = List.init n (fun i -> i) in
  let servers = Node_id.Set.of_list ids in
  let sim = Sim.Engine.create () in
  let model =
    Model.create ~nodes:ids ~pp_payload:Types.payload_to_string ()
  in
  let topo = Topology.create ~nodes:ids in
  let spec = Check.Spec.create () in
  let t =
    {
      policy;
      sim;
      model;
      topo;
      spec;
      history = Hashtbl.create 8;
      nodes =
        Array.of_list
          (List.map
             (fun id ->
               let disk = Disk.create ~engine:sim ~config:mc_disk_config () in
               {
                 id;
                 persist = Persist.create ~engine:sim ~disk ();
                 engine = None;
                 incarnation = 0;
               })
             ids);
      servers;
    }
  in
  Array.iter
    (fun nd ->
      let e =
        Engine.recover ~quorum:t.policy ~recovered:Persist.fresh ~sim
          ~node:nd.id ~servers ~persist:nd.persist
          ~callbacks:(callbacks t nd.id)
          ()
      in
      attach_audit t nd e;
      nd.engine <- Some e)
    t.nodes;
  Model.reconfigure model ~components:(Topology.components topo);
  drain t;
  t

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)

let check t =
  let spec_violations = Check.Spec.take t.spec in
  let snaps =
    Array.fold_right
      (fun nd acc ->
        match nd.engine with
        | Some e -> Check.Snapshot.of_engine ~incarnation:nd.incarnation e :: acc
        | None -> acc)
      t.nodes []
  in
  spec_violations @ Check.Snapshot.sweep t.history snaps

(* ------------------------------------------------------------------ *)
(* Transitions                                                         *)

(* One endpoint event (the engine's input sink hands it to the spec
   oracle first), then quiescence. *)
let deliver_one t nd e =
  match Model.deliver t.model nd.id with
  | None -> None
  | Some ev ->
    Engine.handle_event e ev;
    drain t;
    Some ev

(* A delivery transition consumes view-change fallout (transitional
   configuration, demoted leftovers) until it lands one regular-service
   event: a fresh open-configuration delivery or the next regular
   configuration.  Coalescing keeps fallout — which has no interleaving
   freedom worth exploring against itself — out of the depth budget. *)
let deliver_step t nd e =
  let rec loop () =
    let fresh = Model.next_is_fresh t.model nd.id in
    match deliver_one t nd e with
    | None -> ()
    | Some ev ->
      let landed =
        fresh || (match ev with Endpoint.Reg_conf _ -> true | _ -> false)
      in
      if (not landed) && Model.has_pending t.model nd.id then loop ()
  in
  loop ()

let reconfigure t =
  Model.reconfigure t.model ~components:(Topology.components t.topo);
  drain t

let crash t nd =
  nd.incarnation <- nd.incarnation + 1;
  (* Detach the audit and input sinks before dropping the engine:
     era-guarded closures of the dead incarnation may still fire inside
     later drains and must not feed the spec oracle as this node. *)
  (match nd.engine with Some e -> Engine.set_audit e (fun _ -> ()) | None -> ());
  Persist.crash nd.persist;
  nd.engine <- None;
  Model.crash t.model nd.id;
  reconfigure t

let recover t nd =
  Check.Spec.on_recover t.spec ~node:nd.id;
  let e =
    Engine.recover ~quorum:t.policy
      ~recovered:(Persist.recover ~self:nd.id nd.persist)
      ~sim:t.sim ~node:nd.id
      ~servers:t.servers ~persist:nd.persist
      ~callbacks:(callbacks t nd.id)
      ()
  in
  (* A.13's sync to disk of what the recovery logged. *)
  Persist.sync nd.persist (fun () -> ());
  attach_audit t nd e;
  nd.engine <- Some e;
  Model.recover t.model nd.id;
  reconfigure t

let norm_groups groups =
  List.sort compare (List.map (fun g -> List.sort_uniq compare g) groups)

let current_groups t =
  norm_groups
    (List.map (fun c -> Node_id.Set.elements c) (Topology.components t.topo))

let submittable e =
  match Engine.state e with
  | Types.Reg_prim | Types.Non_prim -> true
  | Types.Trans_prim | Types.Exchange_states | Types.Exchange_actions
  | Types.Construct | Types.No_state | Types.Un_state ->
    false

let apply t tr =
  let inapplicable = { applied = false; appends = []; violations = [] } in
  let finish () =
    {
      applied = true;
      appends = Model.take_appended t.model;
      violations = check t;
    }
  in
  match tr with
  | Script.T_deliver n -> (
    let nd = t.nodes.(n) in
    match nd.engine with
    | Some e when Model.has_pending t.model n ->
      deliver_step t nd e;
      finish ()
    | Some _ | None -> inapplicable)
  | Script.T_submit n -> (
    let nd = t.nodes.(n) in
    match nd.engine with
    | Some e when submittable e ->
      Engine.submit e ~client:1 ~semantics:Action.Strict ~size:200 ~req_seq:0
        ~req_ack:0
        ~kind:(Action.Update [ Op.Add ("mc", 1) ])
        ~on_created:(fun _ -> ());
      drain t;
      finish ()
    | Some _ | None -> inapplicable)
  | Script.T_crash n ->
    let nd = t.nodes.(n) in
    if nd.engine = None then inapplicable
    else begin
      crash t nd;
      finish ()
    end
  | Script.T_recover n ->
    let nd = t.nodes.(n) in
    if nd.engine <> None then inapplicable
    else begin
      recover t nd;
      finish ()
    end
  | Script.T_partition groups ->
    if norm_groups groups = current_groups t then inapplicable
    else begin
      Topology.partition t.topo groups;
      reconfigure t;
      finish ()
    end
  | Script.T_merge ->
    if List.length (Topology.components t.topo) < 2 then inapplicable
    else begin
      Topology.merge_all t.topo;
      reconfigure t;
      finish ()
    end

(* ------------------------------------------------------------------ *)
(* Enabled transitions, in canonical order: deliveries first (the only
   transitions DPOR prunes), then submissions, then faults.            *)

let canned_partitions n =
  let all = List.init n (fun i -> i) in
  let isolate i = [ [ i ]; List.filter (fun j -> j <> i) all ] in
  let split = List.map (fun i -> [ i ]) all in
  (if n > 2 then List.map isolate all else [])
  @ [ (if n > 1 then split else []) ]
  |> List.filter (fun g -> g <> [])

let enabled t =
  let delivers =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           match nd.engine with
           | Some _ when Model.has_pending t.model nd.id ->
             Some (Script.T_deliver nd.id)
           | Some _ | None -> None)
  in
  let submits =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           match nd.engine with
           | Some e when submittable e -> Some (Script.T_submit nd.id)
           | Some _ | None -> None)
  in
  let crashes =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           if nd.engine <> None then Some (Script.T_crash nd.id) else None)
  in
  let recovers =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           if nd.engine = None then Some (Script.T_recover nd.id) else None)
  in
  let cur = current_groups t in
  let partitions =
    canned_partitions (Array.length t.nodes)
    |> List.filter (fun g -> norm_groups g <> cur)
    |> List.map (fun g -> Script.T_partition g)
  in
  let merges =
    if List.length (Topology.components t.topo) > 1 then [ Script.T_merge ]
    else []
  in
  delivers @ submits @ crashes @ recovers @ partitions @ merges

(* ------------------------------------------------------------------ *)
(* State hashing                                                       *)

(* Virtual time and incarnation counters are deliberately excluded: they
   encode how the state was reached, not what it is.  After a drained
   transition the simulation queue is empty, so nothing hides there.   *)
let fingerprint t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Topology.fingerprint t.topo);
  Array.iter
    (fun nd ->
      Printf.bprintf buf "/n%d:" nd.id;
      match nd.engine with
      | None -> Buffer.add_string buf "down"
      | Some e ->
        Check.Snapshot.bprint_facts buf
          (Check.Snapshot.of_engine ~incarnation:nd.incarnation e);
        Printf.bprintf buf "log%d" (Persist.entries_logged nd.persist))
    t.nodes;
  Buffer.add_char buf '/';
  Buffer.add_string buf (Model.fingerprint t.model);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Initial stabilization: deliver everything round-robin until quiet,
   outside any budget — exploration starts from the installed primary,
   like a production system that booted cleanly.                       *)

let stabilize t =
  let rec loop budget =
    if budget = 0 then invalid_arg "System.stabilize: no quiescence";
    let next =
      Array.to_list t.nodes
      |> List.find_opt (fun nd ->
             nd.engine <> None && Model.has_pending t.model nd.id)
    in
    match next with
    | None -> ()
    | Some nd ->
      (match nd.engine with
      | Some e -> ignore (deliver_one t nd e)
      | None -> ());
      loop (budget - 1)
  in
  loop 10_000;
  ignore (Model.take_appended t.model);
  check t

let node_state t n = Option.map Engine.state t.nodes.(n).engine
