module Sim = Repro_sim
open Repro_net
open Repro_storage
open Repro_db
open Repro_core

type t = {
  w_cluster : Replica.cluster;
  w_replicas : (Node_id.t, Replica.t) Hashtbl.t;
  mutable w_nodes : Node_id.t list;
  mutable w_list : Replica.t list; (* the replicas of [w_nodes], in order *)
  w_replica : node:Node_id.t -> Replica.role -> Replica.t;
      (* every replica, joiners included, is built with the same settings *)
  mutable w_proc_guard : Repro_check.Procguard.t option;
      (* attached to every replica, joiners included, once requested *)
  mutable w_monitor : Repro_check.Monitor.t option;
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
  let replica ~node role =
    Replica.create ~disk_config ~attach_cpu ?checkpoint_every ?quorum_policy
      ?dedup_window ?admission ~cluster ~node ~role ()
  in
  let replicas = Hashtbl.create n in
  List.iter
    (fun node ->
      let r = replica ~node (Replica.Static nodes) in
      Hashtbl.replace replicas node r;
      Replica.start r)
    nodes;
  {
    w_cluster = cluster;
    w_replicas = replicas;
    w_nodes = nodes;
    w_list = List.map (Hashtbl.find replicas) nodes;
    w_replica = replica;
    w_proc_guard = None;
    w_monitor = None;
  }

let sim t = Replica.cluster_sim t.w_cluster
let topology t = Replica.cluster_topology t.w_cluster

let replicas t = t.w_list

let replica t node = Hashtbl.find t.w_replicas node
let nodes t = t.w_nodes

let add_joiner t ~node ~sponsors =
  Topology.add_node (topology t) node;
  let r = t.w_replica ~node (Replica.Joiner sponsors) in
  Hashtbl.replace t.w_replicas node r;
  t.w_nodes <- t.w_nodes @ [ node ];
  t.w_list <- List.map (Hashtbl.find t.w_replicas) t.w_nodes;
  (match t.w_proc_guard with
  | Some g -> Repro_check.Procguard.attach g r
  | None -> ());
  (match t.w_monitor with
  | Some m -> Repro_check.Monitor.attach_new m
  | None -> ());
  Replica.start r;
  r

let run t ~ms =
  let s = sim t in
  Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now s) ~span:(Sim.Time.of_ms ms)) s

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
  match t.w_monitor with
  | Some m -> m
  | None ->
    let m =
      Repro_check.Monitor.create ~sim:(sim t) ~replicas:(fun () -> replicas t)
    in
    t.w_monitor <- Some m;
    m

let heal_and_settle ?(ms = 5_000.) t =
  Topology.merge_all (topology t);
  List.iter (fun r -> if not (Replica.is_up r) then Replica.recover r) (replicas t);
  run t ~ms

(* Safety of a running world, partitions possibly still open: the
   monitor's sweep of the current state, with everything it found
   before, and the single-primary rule.  Convergence, the ledgers and
   liveness wait for the verdict. *)
let safety t =
  let m = attach_monitor t in
  Repro_check.Monitor.check_now m;
  Repro_check.Monitor.violations m
  @ Consistency.check_single_primary (replicas t)

(* The end-of-run verdict: each oracle once, in a fixed order.  Total
   order and FIFO are the monitor's sweep's, not
   [Consistency.check_all]'s, so a fork is reported once. *)
let verdict t ~ledgers =
  let module Snapshot = Repro_check.Snapshot in
  let replicas = replicas t in
  let footprints =
    match t.w_proc_guard with
    | None -> []
    | Some g -> Repro_check.Procguard.violations g
  in
  let stragglers =
    List.filter_map
      (fun r ->
        if Replica.is_ready r || Replica.has_left r then None
        else
          Some
            (Snapshot.violation ~node:(Replica.node r) "liveness"
               "never became ready again"))
      replicas
  in
  safety t
  @ Consistency.check_convergence replicas
  @ Consistency.check_exactly_once ~ledgers replicas
  @ footprints @ stragglers

let fail_on = function
  | [] -> ()
  | vs ->
    failwith
      (Format.asprintf "@[<v>%d violation(s):@,%a@]" (List.length vs)
         (Format.pp_print_list Repro_check.Snapshot.pp_violation)
         vs)

let assert_safe t = fail_on (safety t)
let assert_ok t ~ledgers = fail_on (verdict t ~ledgers)
