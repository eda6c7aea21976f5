open Repro_sim

type t = {
  heartbeat_interval : Time.t;
  fd_timeout : Time.t;
  fd_check_interval : Time.t;
  probe_interval : Time.t;
  gather_window : Time.t;
  propose_timeout : Time.t;
  flush_timeout : Time.t;
  order_delay : Time.t;
  ack_delay : Time.t;
}

let default =
  {
    heartbeat_interval = Time.of_ms 25.;
    fd_timeout = Time.of_ms 150.;
    fd_check_interval = Time.of_ms 20.;
    probe_interval = Time.of_ms 120.;
    gather_window = Time.of_ms 30.;
    propose_timeout = Time.of_ms 250.;
    flush_timeout = Time.of_ms 500.;
    (* Ordering and safety cadence sized for the gigabit hot path: the
       coordinator's order batch and the members' cumulative acks are
       the two pipeline stages between a delivered Data message and its
       safe (green) delivery, so their delays bound end-to-end latency
       — and, for closed-loop clients, throughput.  50/150 µs still
       batches a burst's worth of messages per multicast at high load
       (the amortisation the paper's daemon gets from its packing)
       without making the cadence itself the bottleneck at low load. *)
    order_delay = Time.of_us 50;
    ack_delay = Time.of_us 150;
  }

let wan =
  {
    heartbeat_interval = Time.of_ms 100.;
    fd_timeout = Time.of_ms 500.;
    fd_check_interval = Time.of_ms 100.;
    probe_interval = Time.of_ms 500.;
    gather_window = Time.of_ms 150.;
    propose_timeout = Time.of_ms 800.;
    flush_timeout = Time.of_sec 3.;
    order_delay = Time.of_ms 1.;
    ack_delay = Time.of_ms 5.;
  }

let fast =
  {
    heartbeat_interval = Time.of_ms 5.;
    fd_timeout = Time.of_ms 16.;
    fd_check_interval = Time.of_ms 4.;
    probe_interval = Time.of_ms 24.;
    gather_window = Time.of_ms 6.;
    propose_timeout = Time.of_ms 24.;
    flush_timeout = Time.of_ms 100.;
    order_delay = Time.of_us 100;
    ack_delay = Time.of_us 200;
  }
