open Repro_sim

(** Protocol timing parameters of the group communication stack. *)

type t = {
  heartbeat_interval : Time.t;
      (** a member multicasts a heartbeat if it has been silent this long *)
  fd_timeout : Time.t;
      (** a member silent this long is suspected, triggering membership *)
  fd_check_interval : Time.t;  (** how often suspicion is evaluated *)
  probe_interval : Time.t;
      (** the coordinator broadcasts a component-wide probe this often to
          discover merge opportunities *)
  gather_window : Time.t;
      (** membership set considered stable after this long without growth *)
  propose_timeout : Time.t;
      (** a non-coordinator gatherer re-gathers if no proposal arrives *)
  flush_timeout : Time.t;
      (** the flush phase is abandoned and gathering restarts *)
  order_delay : Time.t;
      (** batching delay before the coordinator multicasts order
          assignments *)
  ack_delay : Time.t;
      (** batching delay before a member multicasts a cumulative ack *)
}

val default : t
(** LAN-scale defaults: partitions detected within ~100 ms, merges within
    ~250 ms, and an ordering/ack cadence (50/150 µs) sized so the safe-
    delivery pipeline, not the batching timers, bounds hot-path latency
    on a gigabit network. *)

val wan : t
(** Wide-area defaults: every window sized for tens-of-milliseconds
    propagation delays and background loss. *)

val fast : t
(** Aggressive timeouts for compact unit tests. *)
