module Sim = Repro_sim
open Repro_net
open Repro_gcs
open Repro_storage
open Repro_db
open Repro_core
module Check = Repro_check

(* The system under test: one [Replica] per node, the same replica the
   simulated world runs, over the abstract EVS service ([Model]) instead
   of the timing-driven endpoint stack.  The checker drives it one
   {!Script.transition} at a time; each transition runs to quiescence
   (the simulation queue drains fully), so the only nondeterminism left
   is the choice of transition — exactly what the explorer branches on.

   Every transition is followed by the two oracles: the repcheck
   [Snapshot] sweep (instantaneous + step invariants over replica
   snapshots) and the abstract-spec conformance oracle ([Spec]), wired
   as each replica's input and audit sinks. *)

type t = {
  sim : Sim.Engine.t;
  model : Types.payload Model.t;
  topo : Topology.t;
  spec : Check.Spec.t;
  history : (Node_id.t, Check.Snapshot.node_snap) Hashtbl.t;
  replicas : Replica.t array;
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

let drain t = ignore (Sim.Engine.drain t.sim)

let create ?(policy = Quorum.Dynamic_linear) ~nodes:n () =
  if n < 1 then invalid_arg "System.create: need at least one node";
  let ids = List.init n (fun i -> i) in
  let model =
    Model.create ~nodes:ids ~pp_payload:Types.payload_to_string ()
  in
  let cluster = Replica.model_cluster ~model ~nodes:ids () in
  let spec = Check.Spec.create () in
  let replica id =
    let r =
      Replica.create ~disk_config:mc_disk_config ~attach_cpu:false
        ~checkpoint_every:None ~quorum_policy:policy ~cluster ~node:id
        ~role:(Replica.Static ids) ()
    in
    Replica.set_audit r
      ~input:(Check.Spec.on_input spec ~node:id)
      (Check.Spec.on_audit spec ~node:id);
    r
  in
  let t =
    {
      sim = Replica.cluster_sim cluster;
      model;
      topo = Replica.cluster_topology cluster;
      spec;
      history = Hashtbl.create 8;
      replicas = Array.of_list (List.map replica ids);
    }
  in
  Model.reconfigure model ~components:(Topology.components t.topo);
  drain t;
  t

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)

let check t =
  let spec_violations = Check.Spec.take t.spec in
  let snaps =
    List.filter_map Check.Snapshot.of_replica (Array.to_list t.replicas)
  in
  spec_violations @ Check.Snapshot.sweep t.history snaps

(* ------------------------------------------------------------------ *)
(* Transitions                                                         *)

(* One endpoint event (the engine's input sink hands it to the spec
   oracle first), then quiescence. *)
let deliver_one t r =
  match Model.deliver t.model (Replica.node r) with
  | None -> None
  | Some ev ->
    Engine.handle_event (Replica.engine r) ev;
    drain t;
    Some ev

(* A delivery transition consumes view-change fallout (transitional
   configuration, demoted leftovers) until it lands one regular-service
   event: a fresh open-configuration delivery or the next regular
   configuration.  Coalescing keeps fallout — which has no interleaving
   freedom worth exploring against itself — out of the depth budget. *)
let deliver_step t r =
  let n = Replica.node r in
  let rec loop () =
    let fresh = Model.next_is_fresh t.model n in
    match deliver_one t r with
    | None -> ()
    | Some ev ->
      let landed =
        fresh || (match ev with Endpoint.Reg_conf _ -> true | _ -> false)
      in
      if (not landed) && Model.has_pending t.model n then loop ()
  in
  loop ()

let reconfigure t =
  Model.reconfigure t.model ~components:(Topology.components t.topo);
  drain t

let deliverable t r =
  Replica.is_ready r && Model.has_pending t.model (Replica.node r)

let submittable r =
  Replica.is_ready r
  &&
  match Replica.state r with
  | Types.Reg_prim | Types.Non_prim -> true
  | Types.Trans_prim | Types.Exchange_states | Types.Exchange_actions
  | Types.Construct | Types.No_state | Types.Un_state ->
    false

let norm_groups groups =
  List.sort compare (List.map (fun g -> List.sort_uniq compare g) groups)

let current_groups t =
  norm_groups
    (List.map (fun c -> Node_id.Set.elements c) (Topology.components t.topo))

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
  | Script.T_deliver n ->
    let r = t.replicas.(n) in
    if not (deliverable t r) then inapplicable
    else begin
      deliver_step t r;
      finish ()
    end
  | Script.T_submit n ->
    let r = t.replicas.(n) in
    if not (submittable r) then inapplicable
    else begin
      Replica.submit_request r ~client:1 ~semantics:Action.Strict ~size:200
        ~req_seq:0 ~req_ack:0
        (Action.Update [ Op.Add ("mc", 1) ])
        ~on_response:ignore;
      drain t;
      finish ()
    end
  | Script.T_crash n ->
    let r = t.replicas.(n) in
    if not (Replica.is_up r) then inapplicable
    else begin
      Replica.crash r;
      reconfigure t;
      finish ()
    end
  | Script.T_recover n ->
    let r = t.replicas.(n) in
    if Replica.is_up r then inapplicable
    else begin
      Check.Spec.on_recover t.spec ~node:n;
      Replica.recover r;
      reconfigure t;
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
  let each keep tr =
    Array.to_list t.replicas
    |> List.filter_map (fun r ->
           if keep r then Some (tr (Replica.node r)) else None)
  in
  let delivers = each (deliverable t) (fun n -> Script.T_deliver n) in
  let submits = each submittable (fun n -> Script.T_submit n) in
  let crashes = each Replica.is_up (fun n -> Script.T_crash n) in
  let recovers =
    each (fun r -> not (Replica.is_up r)) (fun n -> Script.T_recover n)
  in
  let cur = current_groups t in
  let partitions =
    canned_partitions (Array.length t.replicas)
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
    (fun r ->
      Printf.bprintf buf "/n%d:" (Replica.node r);
      match Check.Snapshot.of_replica r with
      | None -> Buffer.add_string buf "down"
      | Some snap ->
        Check.Snapshot.bprint_facts buf snap;
        Printf.bprintf buf "log%d" (Replica.log_entries r))
    t.replicas;
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
    match Array.find_opt (deliverable t) t.replicas with
    | None -> ()
    | Some r ->
      ignore (deliver_one t r);
      loop (budget - 1)
  in
  loop 10_000;
  ignore (Model.take_appended t.model);
  check t

let node_state t n =
  let r = t.replicas.(n) in
  if Replica.is_ready r then Some (Replica.state r) else None
