(** A seeded, randomized fault-schedule driver ("nemesis").

    One run builds a {!World.t} whose disks carry an injectable fault
    model, keeps a sustained update workload going, and interleaves it
    with a pseudo-random schedule of crash/restart (with storage
    faults), network partition/heal, and deterministic disk corruption
    of down replicas.  The schedule is drawn from its own [SplitMix64]
    stream, so a seed identifies one reproducible campaign.

    The driver is quorum-aware: it never takes down (or corrupts the
    log under) more replicas than the cluster can lose while still
    fielding a majority, so the final heal phase always has a primary
    component to converge in — what the run asserts is {e safety and
    convergence under faults}, not behaviour without a quorum.

    Alongside the fire-and-forget traffic, the campaign drives a set of
    {!Client} failover sessions, each incrementing a private counter
    key once per acknowledged request — the client-visible exactly-once
    oracle.  Replicas run with admission control enabled, so retry
    storms can be answered [Busy] and the shedding path is exercised
    under the same fault schedule.

    After the active phase it heals every partition, recovers every
    crashed replica (tallying each recovery's {!Repro_core.Persist}
    verdict), lets the cluster settle, and takes the {!World.verdict}:
    a final sweep of the online repcheck {!Repro_check.Monitor} that
    observed the whole run, the global {!Consistency} catalogue, the
    exactly-once ledger over the client counters (no lost acks, no
    double-applies), the footprint guard, and liveness (every replica
    ready again). *)

type config = {
  seed : int;
  nodes : int;  (** replicas on nodes [0..nodes-1] *)
  active_ms : float;  (** duration of the fault-injection phase *)
}

val default_config : config
(** Seed 1, 5 nodes, 4 s active phase. *)

val settle_ms : float
(** The budget of the final heal-and-settle phase: 30 s.  Every campaign
    also runs 4 client sessions, checkpoints every 40 applied actions,
    and gives every disk moderate fault probabilities (torn tails
    likely, occasional crash-time corruption and transient read
    errors). *)

type outcome = {
  o_steps : int;  (** schedule steps executed *)
  o_submitted : int;  (** update transactions submitted *)
  o_crashes : int;
  o_recoveries : int;
  o_corruptions : int;  (** log records damaged by explicit injection *)
  o_partitions : int;
  o_heals : int;
  o_clean : int;  (** recoveries per {!Repro_core.Persist.verdict}... *)
  o_torn : int;
  o_salvaged : int;
  o_amnesia : int;
  o_ready : int;  (** replicas ready after the settle phase *)
  o_greens : int;  (** the converged green count (max across replicas) *)
  o_sweeps : int;  (** monitor sweeps performed during the run *)
  o_procs : int;
      (** stored-procedure executions whose actual key accesses were
          validated against a declared footprint ({!Repro_check.Procguard}) *)
  o_client_acked : int;
      (** acknowledged oracle requests, summed over client sessions *)
  o_retries : int;  (** client re-attempts (timeout- or Busy-triggered) *)
  o_failovers : int;  (** client deadline expiries that rotated targets *)
  o_dupes_suppressed : int;
      (** retried attempts answered from a replica's exactly-once window
          instead of re-executing *)
  o_shed : int;  (** requests refused [Busy] by admission control *)
  o_violations : Repro_check.Snapshot.violation list;
      (** the {!World.verdict}; empty on a pass *)
}

val converged : outcome -> bool
(** All replicas came back ready and no checker complained. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** A small human-readable table (the CLI's output). *)

val run : ?config:config -> unit -> outcome
(** Executes one campaign.  Same config (seed included) ⇒ same
    outcome, bit for bit. *)
