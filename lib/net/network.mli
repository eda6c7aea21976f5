open Repro_sim

(** The message-passing network simulator.

    Polymorphic in the payload type: each protocol stack instantiates its
    own ['msg Network.t].  Delivery latency models a switched LAN or WAN:
    propagation delay + serialisation (size / bandwidth) + random jitter.
    Messages may be lost (probabilistically, and always across partition
    boundaries — checked both at send and at delivery time, so a message
    in flight across a cut is dropped).  Each (src, dst) channel is FIFO,
    like a TCP link: jitter never reorders two messages of one channel.
    Crashed nodes neither send nor receive.

    Once its queues have grown to their high-water marks, sending and
    delivering a message allocates nothing: the messages in flight on a
    channel and those waiting for a node's CPU are kept in rings, and
    each stage schedules a closure made once per channel or CPU. *)

type config = {
  propagation : Time.t;  (** one-way propagation delay *)
  bandwidth_bytes_per_sec : float;  (** serialisation rate *)
  jitter : float;  (** uniform extra delay as a fraction of base latency *)
  loss_probability : float;  (** per-message independent loss, in [0,1) *)
  send_cpu_cost : Time.t;
      (** CPU occupancy charged to the sender per [unicast]/[multicast]
          call (a multicast is one NIC operation on a LAN) when a CPU is
          attached via {!attach_cpu} *)
  recv_cpu_cost : Time.t;
      (** CPU occupancy charged to the receiver per delivered message *)
  recv_cpu_per_kb : Time.t;
      (** additional receive cost per KiB of payload (parsing, copying) *)
}

val lan_100mbit : config
(** The paper's environment: 100 Mbit/s switched LAN, ~100 µs propagation,
    5% jitter, no background loss. *)

val lan_gigabit : config
(** A modern datacentre profile: 1 Gbit/s, ~30 µs propagation, and an
    order of magnitude less CPU per message — the environment the
    hot-path throughput figures are quoted on (the 100 Mbit profile
    stays available for the paper's historical comparison points). *)

val wan_default : config
(** A 30 ms / 10 Mbit/s lossy wide-area profile for extension scenarios. *)

type 'msg t

val create :
  engine:Engine.t -> topology:Topology.t -> config:config -> unit -> 'msg t

val topology : 'msg t -> Topology.t
val engine : 'msg t -> Engine.t

val register :
  'msg t -> Node_id.t -> handler:(src:Node_id.t -> 'msg -> unit) -> unit
(** Attaches the receive handler for a node.  Re-registering replaces the
    handler (used on recovery). *)

val set_up : 'msg t -> Node_id.t -> bool -> unit
(** Marks a node up or down (crashed).  Down nodes drop all traffic. *)

val attach_cpu : 'msg t -> Node_id.t -> Resource.t -> unit
(** Routes this node's message processing through a serial CPU resource:
    sends occupy it for [send_cpu_cost], deliveries for [recv_cpu_cost].
    Without an attached CPU, processing is free (pure-latency model). *)

val is_up : 'msg t -> Node_id.t -> bool

val unicast : 'msg t -> src:Node_id.t -> dst:Node_id.t -> size:int -> 'msg -> unit
(** Sends one message of [size] bytes.  Silently dropped when the source
    is down, the destination is down or unregistered at delivery, the
    endpoints are (or become) partitioned, or the loss model fires. *)

val multicast :
  'msg t -> src:Node_id.t -> dsts:Node_id.t list -> size:int -> 'msg -> unit
(** One send per destination (excluding loopback unless listed; loopback
    delivery is immediate-but-asynchronous, i.e. scheduled at +1 µs). *)

val broadcast_component : 'msg t -> src:Node_id.t -> size:int -> 'msg -> unit
(** Multicast to every registered node currently in [src]'s component,
    excluding [src] itself. *)

val messages_sent : 'msg t -> int
val bytes_sent : 'msg t -> int
val messages_dropped : 'msg t -> int