open Repro_sim

(** Reproduction of every artifact in the paper's evaluation (§7), plus
    the ablations A1-A5 DESIGN.md commits to.

    Each generator prints the series the paper reports (same rows/axes)
    to the given formatter and returns the measured numbers so tests and
    EXPERIMENTS.md tooling can assert on the *shape* (who wins, by what
    factor, where curves flatten). *)

type series = (int * float) list
(** (x, value) points, e.g. (clients, actions/second). *)

val figure_5a :
  ?clients:int list ->
  ?duration:Time.t ->
  Format.formatter ->
  unit ->
  (string * series) list
(** Figure 5(a): throughput of engine (forced writes) vs COReL vs 2PC,
    14 replicas, 1..14 closed-loop clients. *)

val figure_5b :
  ?clients:int list ->
  ?duration:Time.t ->
  Format.formatter ->
  unit ->
  (string * series) list
(** Figure 5(b): engine with forced vs delayed (asynchronous) disk
    writes. *)

val latency_table : Format.formatter -> unit -> (string * series) list
(** The §7 latency experiment: one client, sequential actions, average
    response time per protocol as the number of servers grows (paper:
    ≈19.3 ms for 2PC, ≈11.4 ms for COReL and the engine, flat in the
    number of servers). *)

val wan_prediction : Format.formatter -> unit -> (string * float * float) list
(** §7's wide-area claim: with network latency dominant, COReL's (and the
    engine's) advantage over 2PC grows — per-protocol mean latency on the
    LAN profile vs a 30 ms WAN profile.  Returns (protocol, lan_ms,
    wan_ms) rows. *)

val ablation_ack_batching :
  ?duration:Time.t -> Format.formatter -> unit -> series
(** Ablation A1: cost of per-action end-to-end acknowledgement pressure —
    sweep the group-communication acknowledgement batching delay and
    measure engine throughput (smaller delay ≈ per-action acks). *)

val ablation_quorum_availability :
  Format.formatter -> unit -> (float * float) * (float * float)
(** Ablation A5: fraction of churn time with a live primary component,
    ((dlv, static) under cascading splits, (dlv, static) under chaotic
    splits) — quantifies the §3.1 quorum-system choice and its known
    trade-off. *)

val ablation_scale :
  ?duration:Time.t ->
  Format.formatter ->
  unit ->
  (int * (float * float)) list
(** Ablation A4: engine throughput and latency as the replica count grows
    at a fixed client count — the cost of adding replicas when nothing is
    acknowledged per action. *)

val ablation_query_path :
  ?duration:Time.t ->
  Format.formatter ->
  unit ->
  (float * float) * (float * float)
(** Ablation A3: the §6 read-only optimisation — ((throughput, latency)
    with ordered reads, (throughput, latency) with local session reads)
    under a read-heavy mix. *)

val partition_timeline : Format.formatter -> unit -> (float * float) list
(** Ablation A2: throughput timeline across a partition and a merge —
    demonstrates that the engine pays end-to-end synchronisation only at
    membership-change events.  Returns (second, actions/s) buckets. *)
