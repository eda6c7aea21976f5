(* Layer isolation rigs: each rebuilds one layer of a workload on its
   own, at the workload's size, and times the public calls into it under
   host spans of its own.  Together with the traced run they say where
   a workload's host time per operation goes. *)

module Sim = Repro_sim
module Time = Sim.Time
module Network = Repro_net.Network
module Node_id = Repro_net.Node_id
module Topology = Repro_net.Topology
module Endpoint = Repro_gcs.Endpoint
module Params = Repro_gcs.Params
module Conf_id = Repro_gcs.Conf_id
module Disk = Repro_storage.Disk
module Action = Repro_db.Action
module Database = Repro_db.Database
module Executor = Repro_db.Executor
module Procedure = Repro_db.Procedure
module Types = Repro_core.Types
module Knowledge = Repro_core.Knowledge
module Persist = Repro_core.Persist

(* sim: one schedule + one step per event, with [depth] events pending
   (the workload's sampled median queue depth). *)
let sim_step_ns spans ~seed ~depth =
  let e = Sim.Engine.create ~seed () in
  let rng = Sim.Rng.of_int seed in
  let rec event () =
    ignore (Sim.Engine.schedule e ~delay:(Time.of_us (1 + Sim.Rng.int rng 1_000)) event)
  in
  for _ = 1 to max 1 depth do
    event ()
  done;
  let chunks = 20 and per_chunk = 10_000 in
  for _ = 1 to chunks do
    Spans.host spans "Sim.Engine.step" (fun () ->
        for _ = 1 to per_chunk do
          ignore (Sim.Engine.step e)
        done)
  done;
  Spans.total_us spans *. 1000. /. float_of_int (chunks * per_chunk)

let cpus engine net nodes =
  List.iter (fun n -> Network.attach_cpu net n (Sim.Resource.create engine)) nodes

(* net: multicasts at the workload's fan-out and action size through a
   network with its CPU model, delivered by the simulator. *)
let net_deliver_ns spans ~seed (shape : Workloads.shape) =
  let e = Sim.Engine.create ~seed () in
  let nodes = List.init shape.members Fun.id in
  let net : int Network.t =
    Network.create ~engine:e ~topology:(Topology.create ~nodes) ~config:shape.net ()
  in
  cpus e net nodes;
  let delivered = ref 0 in
  List.iter (fun n -> Network.register net n ~handler:(fun ~src:_ _ -> incr delivered)) nodes;
  let rounds = max 200 (40_000 / (shape.members * shape.members)) in
  for r = 1 to rounds do
    List.iter
      (fun src ->
        let dsts = List.filter (fun n -> n <> src) nodes in
        Spans.host spans "Network.multicast" (fun () ->
            Network.multicast net ~src ~dsts ~size:shape.action_size r))
      nodes;
    Spans.host spans "Sim.Engine.run" (fun () -> Sim.Engine.run e)
  done;
  Spans.total_us spans *. 1000. /. float_of_int (max 1 !delivered)

type gcs = {
  safe_ms : Sample.t;  (* send -> safe delivery at the sender *)
  msgs_per_delivery : float;
  bytes_per_delivery : float;
  host_us_per_op : float;
}

(* gcs: a bare endpoint group over a bench-owned network with the
   workload's members, action size and CPU model, fed Poisson arrivals
   at the workload's measured completion rate. *)
let gcs_group spans ~seed ~rate ~window_s (shape : Workloads.shape) =
  let e = Sim.Engine.create ~seed () in
  let nodes = List.init shape.members Fun.id in
  let net : int Endpoint.wire Network.t =
    Network.create ~engine:e ~topology:(Topology.create ~nodes) ~config:shape.net ()
  in
  cpus e net nodes;
  let sent_at = Hashtbl.create 4096 in
  let measuring = ref false and delivered = ref 0 in
  let safe_ms = Sample.create () in
  let endpoints =
    Array.of_list
      (List.map
         (fun node ->
           Endpoint.create ~network:net ~params:Params.default ~node
             ~on_event:(function
               | Endpoint.Deliver d when d.Endpoint.sender = node && d.Endpoint.in_regular -> (
                 match Hashtbl.find_opt sent_at d.Endpoint.payload with
                 | Some t0 ->
                   Hashtbl.remove sent_at d.Endpoint.payload;
                   if !measuring then begin
                     incr delivered;
                     Sample.add safe_ms (Time.to_ms (Time.diff (Sim.Engine.now e) t0))
                   end
                 | None -> ())
               | Endpoint.Deliver _ | Endpoint.Trans_conf _ | Endpoint.Reg_conf _ -> ())
             ())
         nodes)
  in
  Array.iter Endpoint.join endpoints;
  Sim.Engine.run ~until:(Time.of_sec 1.) e;
  let arrivals = Sim.Rng.of_int (seed + 3) in
  let next = ref 0 in
  let stop_at = Time.of_sec (1.5 +. window_s) in
  let rec arrive () =
    if Time.(Sim.Engine.now e < stop_at) then begin
      let id = !next in
      incr next;
      let ep = endpoints.(id mod shape.members) in
      Hashtbl.replace sent_at id (Sim.Engine.now e);
      Spans.host spans "Endpoint.send" (fun () ->
          Endpoint.send ep ~service:Endpoint.Safe ~size:shape.action_size id);
      let gap = Sim.Rng.exponential arrivals ~mean:(1. /. rate) in
      ignore (Sim.Engine.schedule e ~delay:(Time.of_sec gap) arrive)
    end
  in
  arrive ();
  Sim.Engine.run ~until:(Time.of_sec 1.5) e;
  measuring := true;
  let m0 = Network.messages_sent net and b0 = Network.bytes_sent net in
  let c0 = Workloads.cpu_s () in
  let slice = Time.of_ms 10. in
  while Time.(Sim.Engine.now e < stop_at) do
    let until = Time.min stop_at (Time.add (Sim.Engine.now e) ~span:slice) in
    Spans.host spans "Sim.Engine.run" (fun () -> Sim.Engine.run ~until e)
  done;
  let cpu = Workloads.cpu_s () -. c0 in
  measuring := false;
  let per x = x /. float_of_int (max 1 !delivered) in
  {
    safe_ms;
    msgs_per_delivery = per (float_of_int (Network.messages_sent net - m0));
    bytes_per_delivery = per (float_of_int (Network.bytes_sent net - b0));
    host_us_per_op = per (cpu *. 1e6);
  }

(* core: ComputeKnowledge over one state message per member, shaped
   like an exchange after a partition heal (every member advertises a
   red cut over all members, a green count and a valid yellow prefix). *)
let exchange_us spans ~members =
  let ids = List.init members Fun.id in
  let member_set = Node_id.set_of_list ids in
  let prim = Types.initial_prim ~servers:member_set in
  let red_cut s =
    List.fold_left (fun m c -> Node_id.Map.add c (1_000 + ((s + c) mod 5)) m) Node_id.Map.empty ids
  in
  let states =
    List.fold_left
      (fun m s ->
        Node_id.Map.add s
          {
            Types.sm_server = s;
            sm_conf = { Conf_id.coord = 0; counter = 1 };
            sm_red_cut = red_cut s;
            sm_green_count = 10_000 + (s mod 7);
            sm_green_line = None;
            sm_green_floor = 0;
            sm_attempt = s mod 4;
            sm_prim = prim;
            sm_vulnerable = Types.invalid_vulnerable;
            sm_yellow =
              {
                Types.y_valid = true;
                y_set =
                  List.init (members + (s mod 3)) (fun i ->
                      { Action.Id.server = i mod members; index = 1_000 + i });
              };
          }
          m)
      Node_id.Map.empty ids
  in
  let calls = 2_000 in
  for _ = 1 to calls do
    Spans.host spans "Knowledge.compute" (fun () ->
        ignore (Knowledge.compute ~members:member_set states))
  done;
  Spans.total_us spans /. float_of_int calls

(* storage: one burst's records through the write-ahead log at the
   workload's observed burst size — ongoing frame + force, red frame,
   green frame + force — on the workload's disk, stepping the simulator
   until both forces are acknowledged. *)
let storage_append_us spans ~seed ~burst (shape : Workloads.shape) =
  let e = Sim.Engine.create ~seed () in
  let p = Persist.create ~engine:e ~disk:(Disk.create ~engine:e ~config:shape.disk ()) () in
  let burst = max 1 burst in
  let iterations = max 200 (30_000 / (3 * burst)) in
  let acked = ref 0 in
  for i = 0 to iterations - 1 do
    let actions =
      List.init burst (fun j ->
          Action.make ~server:0 ~index:((i * burst) + j + 1) ~size:shape.action_size
            (Action.Update []))
    in
    let ack () = incr acked in
    Spans.host spans "Persist.log_ongoing_batch" (fun () -> Persist.log_ongoing_batch p actions);
    Spans.host spans "Persist.sync" (fun () -> Persist.sync p ack);
    Spans.host spans "Persist.log_red_batch" (fun () -> Persist.log_red_batch p actions);
    Spans.host spans "Persist.log_green_batch" (fun () ->
        Persist.log_green_batch p (List.map (fun (a : Action.t) -> a.Action.id) actions));
    Spans.host spans "Persist.sync" (fun () -> Persist.sync p ack);
    Spans.host spans "Sim.Engine.step" (fun () ->
        while !acked < 2 * (i + 1) do
          ignore (Sim.Engine.step e)
        done)
  done;
  Spans.total_us spans /. float_of_int (3 * burst * iterations)

(* db: the workload's operation mix executed against a database holding
   the workload's key space. *)
let execute_us spans ~seed (shape : Workloads.shape) =
  let db = Database.create () in
  shape.preload db;
  let procs = Procedure.builtins () in
  let next = shape.ops ~seed in
  let calls = 20_000 in
  for i = 1 to calls do
    let kind, check = next () in
    let a = Action.make ~server:0 ~index:i ~size:shape.action_size kind in
    let resp = Spans.host spans "Executor.execute" (fun () -> Executor.execute ~procs db a) in
    ignore (check resp)
  done;
  Spans.total_us spans /. float_of_int calls
