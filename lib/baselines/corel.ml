open Repro_net
open Repro_gcs
open Repro_storage
module Sim = Repro_sim

type payload =
  | Act of { act_origin : Node_id.t; act_seq : int }
  | Ack of { ack_from : Node_id.t; ack_durable : int }
      (* cumulative: this replica has forced all deliveries up to index *)

type node_state = {
  ns_id : Node_id.t;
  ns_disk : Disk.t;
  mutable ns_endpoint : payload Endpoint.t option;
  mutable ns_delivered : int; (* deliveries in local total order *)
  mutable ns_durable : int; (* forced prefix *)
  mutable ns_committed : int; (* prefix acked by all members *)
  mutable ns_forcing : bool;
  ns_acks : (Node_id.t, int) Hashtbl.t;
  ns_log : (int, payload) Hashtbl.t; (* delivery index -> action *)
  ns_pending : (int, unit -> unit) Hashtbl.t; (* own seq -> client callback *)
  mutable ns_view : Endpoint.view option;
}

type cluster = {
  c_sim : Sim.Engine.t;
  c_topology : Topology.t;
  c_net : payload Endpoint.wire Network.t;
  c_states : (Node_id.t, node_state) Hashtbl.t;
  c_nodes : Node_id.t list;
  mutable c_committed : int;
  mutable c_seq : int;
}

let sim c = c.c_sim
let topology c = c.c_topology
let committed c = c.c_committed

let ack_size = 32

(* Every client action is 200 bytes, as in the paper's measurements. *)
let action_size = 200

let multicast_ack c ns =
  match ns.ns_endpoint with
  | Some ep when Endpoint.is_installed ep ->
    Endpoint.send ep ~service:Endpoint.Agreed ~size:ack_size
      (Ack { ack_from = ns.ns_id; ack_durable = ns.ns_durable })
  | _ -> ignore c

(* Commit every delivery whose index is acknowledged-durable by all
   current members; answer clients for own actions. *)
let advance_commits c ns =
  match ns.ns_view with
  | None -> ()
  | Some view ->
    let covered =
      Node_id.Set.fold
        (fun m acc ->
          let a =
            if Node_id.equal m ns.ns_id then ns.ns_durable
            else match Hashtbl.find_opt ns.ns_acks m with Some a -> a | None -> 0
          in
          min acc a)
        view.Endpoint.members max_int
    in
    while ns.ns_committed < min covered ns.ns_delivered do
      ns.ns_committed <- ns.ns_committed + 1;
      match Hashtbl.find_opt ns.ns_log ns.ns_committed with
      | Some (Act { act_origin; act_seq }) when Node_id.equal act_origin ns.ns_id
        -> (
        c.c_committed <- c.c_committed + 1;
        match Hashtbl.find_opt ns.ns_pending act_seq with
        | Some k ->
          Hashtbl.remove ns.ns_pending act_seq;
          k ()
        | None -> ())
      | _ -> ()
    done

(* Force the delivered prefix; when the force lands, one acknowledgement
   multicast is sent per newly durable action — COReL end-to-end
   acknowledges every transaction message (its per-action cost), even
   though the index carried is cumulative. *)
let rec force_loop c ns =
  if (not ns.ns_forcing) && ns.ns_durable < ns.ns_delivered then begin
    ns.ns_forcing <- true;
    let target = ns.ns_delivered in
    Disk.force ns.ns_disk (fun () ->
        ns.ns_forcing <- false;
        if target > ns.ns_durable then begin
          let previous = ns.ns_durable in
          ns.ns_durable <- target;
          for _ = previous + 1 to target do
            multicast_ack c ns
          done;
          advance_commits c ns
        end;
        force_loop c ns)
  end

let on_event c ns = function
  | Endpoint.Deliver d -> (
    match d.Endpoint.payload with
    | Act _ as act ->
      ns.ns_delivered <- ns.ns_delivered + 1;
      Hashtbl.replace ns.ns_log ns.ns_delivered act;
      force_loop c ns
    | Ack { ack_from; ack_durable } ->
      let prev =
        match Hashtbl.find_opt ns.ns_acks ack_from with Some a -> a | None -> 0
      in
      if ack_durable > prev then begin
        Hashtbl.replace ns.ns_acks ack_from ack_durable;
        advance_commits c ns
      end)
  | Endpoint.Reg_conf view ->
    ns.ns_view <- Some view;
    advance_commits c ns
  | Endpoint.Trans_conf _ -> ()

let make_cluster ?(net_config = Network.lan_100mbit)
    ?(disk_config = Disk.default_forced) ?(params = Params.default)
    ?(attach_cpu = true) ?(seed = 41) ~nodes () =
  let c_sim = Sim.Engine.create ~seed () in
  let c_topology = Topology.create ~nodes in
  let c_net = Network.create ~engine:c_sim ~topology:c_topology ~config:net_config () in
  let c =
    {
      c_sim;
      c_topology;
      c_net;
      c_states = Hashtbl.create (List.length nodes);
      c_nodes = nodes;
      c_committed = 0;
      c_seq = 0;
    }
  in
  List.iter
    (fun node ->
      let ns =
        {
          ns_id = node;
          ns_disk = Disk.create ~engine:c_sim ~config:disk_config ();
          ns_endpoint = None;
          ns_delivered = 0;
          ns_durable = 0;
          ns_committed = 0;
          ns_forcing = false;
          ns_acks = Hashtbl.create 8;
          ns_log = Hashtbl.create 256;
          ns_pending = Hashtbl.create 32;
          ns_view = None;
        }
      in
      Hashtbl.replace c.c_states node ns;
      if attach_cpu then begin
        let cpu = Sim.Resource.create c_sim in
        Network.attach_cpu c_net node cpu
      end;
      let ep =
        Endpoint.create ~network:c_net ~params ~node
          ~on_event:(fun e -> on_event c ns e)
          ()
      in
      ns.ns_endpoint <- Some ep)
    nodes;
  c

let start c =
  List.iter
    (fun node ->
      let ns = Hashtbl.find c.c_states node in
      match ns.ns_endpoint with Some ep -> Endpoint.join ep | None -> ())
    c.c_nodes

let submit c ~node ~on_response () =
  let ns = Hashtbl.find c.c_states node in
  match ns.ns_endpoint with
  | Some ep ->
    c.c_seq <- c.c_seq + 1;
    let s = c.c_seq in
    Hashtbl.replace ns.ns_pending s on_response;
    Endpoint.send ep ~service:Endpoint.Agreed ~size:action_size
      (Act { act_origin = node; act_seq = s })
  | None -> ()
