open Repro_sim
open Repro_net
open Repro_storage

type txn_id = { tx_coord : Node_id.t; tx_seq : int }

type wire =
  | Prepare of { p_tx : txn_id }
  | Vote_yes of { v_tx : txn_id }
  | Commit of { c_tx : txn_id }
  | Abort of { a_tx : txn_id }

type pending = {
  mutable votes : Node_id.Set.t;
  mutable decided : bool;
  on_response : outcome -> unit;
}

and outcome = Committed | Aborted

type node_state = {
  ns_id : Node_id.t;
  ns_disk : Disk.t;
  ns_pending : (txn_id, pending) Hashtbl.t; (* coordinator side *)
  mutable ns_up : bool;
}

type cluster = {
  c_sim : Engine.t;
  c_topology : Topology.t;
  c_net : wire Network.t;
  c_nodes : Node_id.t list;
  c_states : (Node_id.t, node_state) Hashtbl.t;
  mutable c_seq : int;
  mutable c_committed : int;
  mutable c_aborted : int;
}

let sim c = c.c_sim
let topology c = c.c_topology
let committed c = c.c_committed
let aborted c = c.c_aborted

(* Every client action is 200 bytes, as in the paper's measurements; a
   coordinator that has not collected every vote after two seconds
   aborts. *)
let action_size = 200
let vote_timeout = Time.of_sec 2.

let wire_size = function
  | Prepare _ -> action_size + 48
  | Vote_yes _ | Commit _ | Abort _ -> 48

let peers c node = List.filter (fun n -> not (Node_id.equal n node)) c.c_nodes

let send c ~src ~dst msg =
  Network.unicast c.c_net ~src ~dst ~size:(wire_size msg) msg

let state c node = Hashtbl.find c.c_states node

let decide c ns tx outcome =
  match Hashtbl.find_opt ns.ns_pending tx with
  | Some p when not p.decided ->
    p.decided <- true;
    Hashtbl.remove ns.ns_pending tx;
    (match outcome with
    | Committed ->
      c.c_committed <- c.c_committed + 1;
      List.iter (fun dst -> send c ~src:ns.ns_id ~dst (Commit { c_tx = tx })) (peers c ns.ns_id)
    | Aborted ->
      c.c_aborted <- c.c_aborted + 1;
      List.iter (fun dst -> send c ~src:ns.ns_id ~dst (Abort { a_tx = tx })) (peers c ns.ns_id));
    p.on_response outcome
  | _ -> ()

let handle c ns ~src msg =
  if ns.ns_up then
    match msg with
    | Prepare { p_tx } ->
      (* Participant: force the prepare record, then vote. *)
      Disk.force ns.ns_disk (fun () ->
          if ns.ns_up then send c ~src:ns.ns_id ~dst:src (Vote_yes { v_tx = p_tx }))
    | Vote_yes { v_tx } -> (
      match Hashtbl.find_opt ns.ns_pending v_tx with
      | Some p when not p.decided ->
        p.votes <- Node_id.Set.add src p.votes;
        let all = Node_id.set_of_list (peers c ns.ns_id) in
        if Node_id.Set.subset all p.votes then
          (* Force the commit decision before answering anyone. *)
          Disk.force ns.ns_disk (fun () ->
              if ns.ns_up then decide c ns v_tx Committed)
      | _ -> ())
    | Commit _ -> () (* no participant commit record, no acknowledgement *)
    | Abort _ -> ()

let make_cluster ?(net_config = Network.lan_100mbit)
    ?(disk_config = Disk.default_forced) ?(attach_cpu = true) ?(seed = 31)
    ~nodes () =
  let c_sim = Engine.create ~seed () in
  let c_topology = Topology.create ~nodes in
  let c_net = Network.create ~engine:c_sim ~topology:c_topology ~config:net_config () in
  let c =
    {
      c_sim;
      c_topology;
      c_net;
      c_nodes = nodes;
      c_states = Hashtbl.create (List.length nodes);
      c_seq = 0;
      c_committed = 0;
      c_aborted = 0;
    }
  in
  List.iter
    (fun node ->
      let ns =
        {
          ns_id = node;
          ns_disk = Disk.create ~engine:c_sim ~config:disk_config ();
          ns_pending = Hashtbl.create 32;
          ns_up = true;
        }
      in
      Hashtbl.replace c.c_states node ns;
      if attach_cpu then begin
        let cpu = Resource.create c_sim in
        Network.attach_cpu c_net node cpu
      end;
      Network.register c_net node ~handler:(fun ~src msg -> handle c ns ~src msg))
    nodes;
  c

let submit c ~node ~on_response () =
  let ns = state c node in
  if not ns.ns_up then on_response Aborted
  else begin
    c.c_seq <- c.c_seq + 1;
    let tx = { tx_coord = node; tx_seq = c.c_seq } in
    let p = { votes = Node_id.Set.empty; decided = false; on_response } in
    Hashtbl.replace ns.ns_pending tx p;
    (* The coordinator logs nothing before asking for votes, so the
       critical path carries exactly two forced writes — the
       participants' prepare and the coordinator's commit decision. *)
    (match peers c node with
    | [] -> Disk.force ns.ns_disk (fun () -> decide c ns tx Committed)
    | dsts ->
      List.iter
        (fun dst -> send c ~src:node ~dst (Prepare { p_tx = tx }))
        dsts);
    Engine.schedule c.c_sim ~delay:vote_timeout (fun () ->
        if ns.ns_up then decide c ns tx Aborted)
  end

let crash c node =
  let ns = state c node in
  ns.ns_up <- false;
  Network.set_up c.c_net node false;
  Disk.crash ns.ns_disk;
  Hashtbl.reset ns.ns_pending

let recover c node =
  let ns = state c node in
  ns.ns_up <- true;
  Network.set_up c.c_net node true
