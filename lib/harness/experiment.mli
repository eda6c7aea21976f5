open Repro_sim
open Repro_storage

(** The closed-loop measurement driver used by every figure.

    Mirrors the paper's §7 methodology: [clients] closed-loop clients
    spread round-robin over the replicas, each injecting its next
    200-byte action as soon as the previous one completes (is globally
    ordered); no database is attached to the measured path.  Throughput
    counts completions inside the measurement window; latency is
    per-action, submit-to-global-order at the submitting client. *)

type protocol =
  | Engine_protocol of Disk.mode  (** the paper's replication engine *)
  | Corel_protocol
  | Twopc_protocol

val protocol_name : protocol -> string

type result = {
  r_protocol : protocol;
  r_servers : int;
  r_clients : int;
  r_throughput : float;  (** actions per (virtual) second *)
  r_mean_latency_ms : float;
  r_p99_latency_ms : float;
  r_completed : int;
}

val run :
  ?net_config:Repro_net.Network.config ->
  ?params:Repro_gcs.Params.t ->
  ?servers:int ->
  ?action_size:int ->
  ?warmup:Time.t ->
  ?duration:Time.t ->
  ?seed:int ->
  clients:int ->
  protocol ->
  result
(** Defaults: 14 servers (the paper's testbed), 200-byte actions, 2 s
    warm-up, 8 s measurement, on the gigabit LAN profile (pass
    [~net_config:Network.lan_100mbit] for the paper's 2001 testbed). *)
