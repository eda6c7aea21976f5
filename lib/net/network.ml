open Repro_sim

type config = {
  propagation : Time.t;
  bandwidth_bytes_per_sec : float;
  jitter : float;
  loss_probability : float;
  send_cpu_cost : Time.t;
  recv_cpu_cost : Time.t;
  recv_cpu_per_kb : Time.t;
}

let lan_100mbit =
  {
    propagation = Time.of_us 100;
    bandwidth_bytes_per_sec = 12_500_000.; (* 100 Mbit/s *)
    jitter = 0.05;
    loss_probability = 0.;
    send_cpu_cost = Time.of_us 50;
    recv_cpu_cost = Time.of_us 30;
    recv_cpu_per_kb = Time.of_us 500;
  }

let lan_gigabit =
  {
    propagation = Time.of_us 30;
    bandwidth_bytes_per_sec = 125_000_000.; (* 1 Gbit/s *)
    jitter = 0.05;
    loss_probability = 0.;
    send_cpu_cost = Time.of_us 5;
    recv_cpu_cost = Time.of_us 3;
    recv_cpu_per_kb = Time.of_us 20;
  }

let wan_default =
  {
    propagation = Time.of_ms 30.;
    bandwidth_bytes_per_sec = 1_250_000.; (* 10 Mbit/s *)
    jitter = 0.2;
    loss_probability = 0.01;
    send_cpu_cost = Time.of_us 30;
    recv_cpu_cost = Time.of_us 30;
    recv_cpu_per_kb = Time.of_us 500;
  }

module Tbl = Node_id.Tbl

type 'msg handler = src:Node_id.t -> 'msg -> unit

(* Delivery allocates nothing per message.  What a message needs at each
   stage lives in rings, and each stage's event is a closure made once
   and scheduled again per message, so a delivery schedules exactly the
   events, in the same order, that a closure per message would. *)
type 'msg node = {
  id : Node_id.t;
  mutable up : bool;
  mutable handler : 'msg handler option;
  mutable station : 'msg station option;
  channels : 'msg channel Tbl.t; (* outgoing, by destination *)
}

(* One (src, dst) link.  Its arrival times strictly increase, so the
   messages in flight form a FIFO, and the k-th firing of [arrival]
   delivers the k-th of them. *)
and 'msg channel = {
  mutable horizon : int; (* arrival (µs) of the latest message; -1 before the first *)
  in_flight_size : int Ring.t;
  in_flight : 'msg Ring.t;
  arrival : unit -> unit;
}

(* A node's attached CPU.  The resource runs jobs FIFO, so the k-th run
   of [receive] (or [transmit]) handles the k-th message queued here;
   the rings are cleared when the resource drops its jobs. *)
and 'msg station = {
  cpu : Resource.t;
  rx_src : Node_id.t Ring.t;
  rx_handler : 'msg handler Ring.t;
  rx_msg : 'msg Ring.t;
  receive : unit -> unit;
  tx_dsts : Node_id.t list Ring.t;
  tx_size : int Ring.t;
  tx_msg : 'msg Ring.t;
  transmit : unit -> unit;
}

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  config : config;
  rng : Rng.t;
  nodes : 'msg node Tbl.t;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;
}

let create ~engine ~topology ~config () =
  {
    engine;
    topology;
    config;
    rng = Rng.split (Engine.rng engine);
    nodes = Tbl.create 32;
    messages_sent = 0;
    bytes_sent = 0;
    messages_dropped = 0;
  }

let topology t = t.topology
let engine t = t.engine

let node t id =
  match Tbl.find t.nodes id with
  | n -> n
  | exception Not_found ->
    let n = { id; up = true; handler = None; station = None; channels = Tbl.create 16 } in
    Tbl.add t.nodes id n;
    n

let register t id ~handler = (node t id).handler <- Some handler
let set_up t id b = (node t id).up <- b

let is_up t id =
  match Tbl.find t.nodes id with n -> n.up | exception Not_found -> true

let drop t = t.messages_dropped <- t.messages_dropped + 1

(* The float arithmetic of [Time.of_sec] and [Time.scale], written out
   here: a float argument computed for a call into another module is
   boxed. *)
let latency t ~size =
  let c = t.config in
  let serialisation =
    int_of_float (Float.round (float_of_int size /. c.bandwidth_bytes_per_sec *. 1_000_000.))
  in
  let base = Time.add c.propagation ~span:(Time.of_us serialisation) in
  let jitter = Rng.uniform_span t.rng (Time.scale base c.jitter) in
  Time.add base ~span:jitter

let recv_cost t ~size =
  let c = t.config in
  let per_kb = float_of_int (Time.to_us c.recv_cpu_per_kb) in
  Time.add c.recv_cpu_cost
    ~span:(Time.of_us (int_of_float (Float.round (per_kb *. (float_of_int size /. 1024.)))))

(* A message reaches the head of its channel.  Partition cuts or crashes
   that happened while it was in flight drop it. *)
let arrive t ~src ~dst ~sizes ~msgs =
  let size = Ring.pop sizes in
  let msg = Ring.pop msgs in
  if dst.up && Topology.connected t.topology src dst.id then
    match dst.handler with
    | Some handler -> (
      let cost = recv_cost t ~size in
      match dst.station with
      | Some st when Time.(cost > Time.zero) ->
        Ring.push st.rx_src src;
        Ring.push st.rx_handler handler;
        Ring.push st.rx_msg msg;
        Resource.submit st.cpu ~duration:cost st.receive
      | _ -> handler ~src msg)
    | None -> drop t
  else drop t
  [@@analysis.hotpath "O(1)"]

let channel t src dst =
  match Tbl.find src.channels dst with
  | ch -> ch
  | exception Not_found ->
    let dst = node t dst and sizes = Ring.create () and msgs = Ring.create () in
    let ch =
      {
        horizon = -1;
        in_flight_size = sizes;
        in_flight = msgs;
        arrival = (fun () -> arrive t ~src:src.id ~dst ~sizes ~msgs);
      }
    in
    Tbl.add src.channels dst.id ch;
    ch

let send_now t src dst ~size msg =
  if not src.up then drop t
  else if not (Topology.connected t.topology src.id dst) then drop t
  else if Rng.chance t.rng t.config.loss_probability then begin
    t.messages_sent <- t.messages_sent + 1;
    drop t
  end
  else begin
    t.messages_sent <- t.messages_sent + 1;
    t.bytes_sent <- t.bytes_sent + size;
    let delay = if Node_id.equal src.id dst then Time.of_us 1 else latency t ~size in
    let ch = channel t src dst in
    (* Channels are FIFO (as a TCP link or an in-order NIC queue): a
       message is never delivered before one sent earlier on the same
       (src, dst) channel. *)
    let arrival = Time.to_us (Engine.now t.engine) + Time.to_us delay in
    let arrival = if arrival <= ch.horizon then ch.horizon + 1 else arrival in
    ch.horizon <- arrival;
    Ring.push ch.in_flight_size size;
    Ring.push ch.in_flight msg;
    Engine.schedule_at t.engine ~at:(Time.of_us arrival) ch.arrival
  end
  (* One channel-horizon update and one scheduled delivery per call. *)
  [@@analysis.cost "O(1); alloc O(1)"]

let rec send_all t src dsts ~size msg =
  match dsts with
  | [] -> ()
  | dst :: rest ->
    send_now t src dst ~size msg;
    send_all t src rest ~size msg
  [@@analysis.cost "O(members); alloc O(1)"]

let attach_cpu t id cpu =
  let owner = node t id in
  let rx_src = Ring.create () and rx_handler = Ring.create () and rx_msg = Ring.create () in
  let tx_dsts = Ring.create () and tx_size = Ring.create () and tx_msg = Ring.create () in
  let receive () =
    let src = Ring.pop rx_src in
    let handler = Ring.pop rx_handler in
    let msg = Ring.pop rx_msg in
    if owner.up then handler ~src msg
  in
  let transmit () =
    let dsts = Ring.pop tx_dsts in
    let size = Ring.pop tx_size in
    send_all t owner dsts ~size (Ring.pop tx_msg)
  in
  Resource.on_reset cpu (fun () ->
      Ring.clear rx_src;
      Ring.clear rx_handler;
      Ring.clear rx_msg;
      Ring.clear tx_dsts;
      Ring.clear tx_size;
      Ring.clear tx_msg);
  owner.station <-
    Some { cpu; rx_src; rx_handler; rx_msg; receive; tx_dsts; tx_size; tx_msg; transmit }

(* One NIC operation: the send-side CPU cost is charged once. *)
let multicast t ~src ~dsts ~size msg =
  let src = node t src in
  match src.station with
  | Some st when Time.(t.config.send_cpu_cost > Time.zero) ->
    Ring.push st.tx_dsts dsts;
    Ring.push st.tx_size size;
    Ring.push st.tx_msg msg;
    Resource.submit st.cpu ~duration:t.config.send_cpu_cost st.transmit
  | _ -> send_all t src dsts ~size msg

let unicast t ~src ~dst ~size msg = multicast t ~src ~dsts:[ dst ] ~size msg

let registered t id =
  match Tbl.find t.nodes id with
  | n -> Option.is_some n.handler
  | exception Not_found -> false

let broadcast_component t ~src ~size msg =
  let component = Topology.component_of t.topology src in
  let dsts =
    Node_id.Set.elements component
    |> List.filter (fun n -> (not (Node_id.equal n src)) && registered t n)
  in
  multicast t ~src ~dsts ~size msg

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.messages_dropped
