module Sim = Repro_sim
open Repro_net
open Repro_storage
open Repro_db
open Repro_core

type t = {
  w_cluster : Replica.cluster;
  w_replicas : (Node_id.t, Replica.t) Hashtbl.t;
  mutable w_nodes : Node_id.t list;
  w_disk_config : Disk.config;
  w_attach_cpu : bool;
  w_checkpoint_every : int option option;
      (* [None] = Replica's default; [Some c] = explicit setting *)
  w_quorum_policy : Quorum.policy;
  w_dedup_window : int option;
  w_admission : Replica.admission option;
  mutable w_proc_guard : Repro_check.Procguard.t option;
      (* attached to every replica, joiners included, once requested *)
}

let default_net =
  {
    Network.lan_100mbit with
    send_cpu_cost = Sim.Time.zero;
    recv_cpu_cost = Sim.Time.zero;
    recv_cpu_per_kb = Sim.Time.zero;
  }

let default_disk =
  { Disk.default_forced with sync_latency = Sim.Time.of_ms 1. }

let make ?(net_config = default_net) ?(params = Repro_gcs.Params.fast)
    ?(disk_config = default_disk) ?(attach_cpu = false) ?checkpoint_every
    ?quorum_policy ?(seed = 17) ?dedup_window ?admission ~n () =
  let nodes = List.init n Fun.id in
  let cluster = Replica.make_cluster ~net_config ~params ~seed ~nodes () in
  let replicas = Hashtbl.create n in
  List.iter
    (fun node ->
      let r =
        Replica.create ~disk_config ~attach_cpu ?checkpoint_every
          ?quorum_policy ?dedup_window ?admission ~cluster ~node ~servers:nodes
          ()
      in
      Hashtbl.replace replicas node r;
      Replica.start r)
    nodes;
  {
    w_cluster = cluster;
    w_replicas = replicas;
    w_nodes = nodes;
    w_disk_config = disk_config;
    w_attach_cpu = attach_cpu;
    w_checkpoint_every = checkpoint_every;
    w_quorum_policy =
      Option.value quorum_policy ~default:Quorum.Dynamic_linear;
    w_dedup_window = dedup_window;
    w_admission = admission;
    w_proc_guard = None;
  }

let sim t = Replica.cluster_sim t.w_cluster
let topology t = Replica.cluster_topology t.w_cluster
let cluster t = t.w_cluster

let replicas t =
  List.filter_map (fun n -> Hashtbl.find_opt t.w_replicas n) t.w_nodes

let replica t node = Hashtbl.find t.w_replicas node
let nodes t = t.w_nodes

let add_joiner t ~node ~sponsors =
  Topology.add_node (topology t) node;
  let r =
    Replica.create_joiner ~disk_config:t.w_disk_config
      ~attach_cpu:t.w_attach_cpu ?checkpoint_every:t.w_checkpoint_every
      ?dedup_window:t.w_dedup_window ?admission:t.w_admission
      ~cluster:t.w_cluster ~node ~sponsors ()
  in
  Hashtbl.replace t.w_replicas node r;
  t.w_nodes <- t.w_nodes @ [ node ];
  (match t.w_proc_guard with
  | Some g -> Repro_check.Procguard.attach g r
  | None -> ());
  Replica.start r;
  r

let run t ~ms =
  let s = sim t in
  Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now s) ~span:(Sim.Time.of_ms ms)) s

let run_until_quiescent ?(max_ms = 30_000.) t = run t ~ms:max_ms

let submit_update t ~node ~key v =
  let r = replica t node in
  if Replica.is_ready r then
    Replica.submit r
      (Action.Update [ Op.Set (key, Value.Int v) ])
      ~on_response:(fun _ -> ())

let submit_procedure t ~node ~proc args =
  let r = replica t node in
  if Replica.is_ready r then
    Replica.submit r (Action.Active { proc; args }) ~on_response:(fun _ -> ())

let attach_procedure_guard t =
  let g = Repro_check.Procguard.create () in
  t.w_proc_guard <- Some g;
  List.iter (Repro_check.Procguard.attach g) (replicas t);
  g

let attach_monitor t =
  Repro_check.Monitor.create ~sim:(sim t) ~replicas:(fun () -> replicas t)

let heal_and_settle ?(ms = 5_000.) t =
  Topology.merge_all (topology t);
  List.iter (fun r -> if not (Replica.is_up r) then Replica.recover r) (replicas t);
  run t ~ms
