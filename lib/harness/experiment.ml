module Sim = Repro_sim
open Repro_net
open Repro_storage
open Repro_db
open Repro_core

type protocol =
  | Engine_protocol of Disk.mode
  | Corel_protocol
  | Twopc_protocol

let protocol_name = function
  | Engine_protocol Disk.Forced -> "engine (forced writes)"
  | Engine_protocol Disk.Delayed -> "engine (delayed writes)"
  | Corel_protocol -> "COReL"
  | Twopc_protocol -> "2PC"

type result = {
  r_protocol : protocol;
  r_servers : int;
  r_clients : int;
  r_throughput : float;
  r_mean_latency_ms : float;
  r_p99_latency_ms : float;
  r_completed : int;
}

(* A generic closed-loop run over an abstract system. *)
type system = {
  sys_sim : Sim.Engine.t;
  sys_submit : node:Node_id.t -> k:(unit -> unit) -> unit;
  sys_nodes : Node_id.t list;
}

let closed_loop ~system ~clients ~warmup ~duration =
  let sim = system.sys_sim in
  (* Let membership / views settle before attaching clients. *)
  Sim.Engine.run ~until:warmup sim;
  let measure_start = ref Sim.Time.zero in
  let measuring = ref false in
  let completed = ref 0 in
  let latencies = Sim.Stats.Summary.create () in
  let n = List.length system.sys_nodes in
  let rec client_loop node =
    let t0 = Sim.Engine.now sim in
    system.sys_submit ~node ~k:(fun () ->
        let t1 = Sim.Engine.now sim in
        if !measuring then begin
          incr completed;
          Sim.Stats.Summary.add latencies (Sim.Time.to_ms (Sim.Time.diff t1 t0))
        end;
        client_loop node)
  in
  List.iteri
    (fun i _ -> client_loop (List.nth system.sys_nodes (i mod n)))
    (List.init clients Fun.id);
  (* One extra second of ramp before the measurement window opens. *)
  let ramp = Sim.Time.add warmup ~span:(Sim.Time.of_sec 1.) in
  Sim.Engine.run ~until:ramp sim;
  measuring := true;
  measure_start := Sim.Engine.now sim;
  let window_end = Sim.Time.add ramp ~span:duration in
  Sim.Engine.run ~until:window_end sim;
  measuring := false;
  let elapsed = Sim.Time.diff (Sim.Engine.now sim) !measure_start in
  let throughput =
    if Sim.Time.to_sec elapsed > 0. then
      float_of_int !completed /. Sim.Time.to_sec elapsed
    else 0.
  in
  (throughput, latencies, !completed)

let engine_system ~net_config ~params ~mode ~servers ~action_size ~seed =
  let disk_config =
    match mode with
    | Disk.Forced -> Disk.default_forced
    | Disk.Delayed -> Disk.default_delayed
  in
  let w =
    World.make ~net_config ~params ~disk_config ~attach_cpu:true ~seed
      ~n:servers ()
  in
  let submit ~node ~k =
    (* The paper measures the replication engines themselves: clients get
       their response when the action is globally ordered, without
       touching a database — a no-op update keeps the executor trivial. *)
    Replica.submit (World.replica w node) ~size:action_size
      (Action.Update [])
      ~on_response:(fun _ -> k ())
  in
  { sys_sim = World.sim w; sys_submit = submit; sys_nodes = World.nodes w }

let corel_system ~net_config ~params ~servers ~action_size ~seed =
  let nodes = List.init servers Fun.id in
  let cluster =
    Repro_baselines.Corel.make_cluster ~net_config ~params ~seed ~nodes ()
  in
  Repro_baselines.Corel.start cluster;
  let submit ~node ~k =
    Repro_baselines.Corel.submit cluster ~node ~size:action_size
      ~on_response:k ()
  in
  {
    sys_sim = Repro_baselines.Corel.sim cluster;
    sys_submit = submit;
    sys_nodes = nodes;
  }

let twopc_system ~net_config ~servers ~action_size ~seed =
  let nodes = List.init servers Fun.id in
  let cluster = Repro_baselines.Twopc.make_cluster ~net_config ~seed ~nodes () in
  let submit ~node ~k =
    Repro_baselines.Twopc.submit cluster ~node ~size:action_size
      ~on_response:(fun _ -> k ())
      ()
  in
  {
    sys_sim = Repro_baselines.Twopc.sim cluster;
    sys_submit = submit;
    sys_nodes = nodes;
  }

let measure ~system ~clients ~warmup ~duration ~servers ~protocol =
  let throughput, latencies, completed =
    closed_loop ~system ~clients ~warmup ~duration
  in
  {
    r_protocol = protocol;
    r_servers = servers;
    r_clients = clients;
    r_throughput = throughput;
    r_mean_latency_ms = Sim.Stats.Summary.mean latencies;
    r_p99_latency_ms = Sim.Stats.Summary.percentile latencies 99.;
    r_completed = completed;
  }

let run ?(net_config = Network.lan_gigabit)
    ?(params = Repro_gcs.Params.default) ?(servers = 14) ?(action_size = 200)
    ?(warmup = Sim.Time.of_sec 2.) ?(duration = Sim.Time.of_sec 8.)
    ?(seed = 97) ~clients protocol =
  let system =
    match protocol with
    | Engine_protocol mode ->
      engine_system ~net_config ~params ~mode ~servers ~action_size ~seed
    | Corel_protocol ->
      corel_system ~net_config ~params ~servers ~action_size ~seed
    | Twopc_protocol -> twopc_system ~net_config ~servers ~action_size ~seed
  in
  measure ~system ~clients ~warmup ~duration ~servers ~protocol
