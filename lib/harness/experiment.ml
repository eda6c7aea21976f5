module Sim = Repro_sim
open Repro_sim
open Repro_net
open Repro_storage
open Repro_db
open Repro_core

(* ------------------------------------------------------------------ *)
(* The load loop                                                       *)

type loop = {
  sim : Sim.Engine.t;
  mutable stopped : bool;
  mutable measuring : bool;
  mutable opened : Time.t;
  mutable completed : int;
  mutable latencies : Stats.Summary.t;
}

let make sim =
  {
    sim;
    stopped = false;
    measuring = false;
    opened = Time.zero;
    completed = 0;
    latencies = Stats.Summary.create ();
  }

(* Issue request [i]; an answered request inside the window counts,
   with its latency from issue to answer. *)
let issue_one t ~issue i ~k =
  let t0 = Sim.Engine.now t.sim in
  issue i ~k:(fun answered ->
      if answered && t.measuring then begin
        t.completed <- t.completed + 1;
        Stats.Summary.add t.latencies
          (Time.to_ms (Time.diff (Sim.Engine.now t.sim) t0))
      end;
      k ())

let closed sim ~clients ~issue =
  let t = make sim in
  let rec client i =
    if not t.stopped then issue_one t ~issue i ~k:(fun () -> client i)
  in
  for i = 0 to clients - 1 do
    client i
  done;
  t

let poisson sim ~rng ~rate_per_sec ~issue =
  let t = make sim in
  let arrivals = ref 0 in
  let rec arrival () =
    if not t.stopped then begin
      let gap = Rng.exponential rng ~mean:(1. /. rate_per_sec) in
      ignore
        (Sim.Engine.schedule sim ~delay:(Time.of_sec gap) (fun () ->
             if not t.stopped then begin
               incr arrivals;
               issue_one t ~issue !arrivals ~k:ignore;
               arrival ()
             end))
    end
  in
  arrival ();
  t

let measure t =
  t.measuring <- true;
  t.opened <- Sim.Engine.now t.sim;
  t.completed <- 0;
  t.latencies <- Stats.Summary.create ()

let stop t = t.stopped <- true
let completed t = t.completed
let latencies_ms t = t.latencies

let per_sec t n =
  let secs = Time.to_sec (Time.diff (Sim.Engine.now t.sim) t.opened) in
  if secs > 0. then float_of_int n /. secs else 0.

let throughput t = per_sec t t.completed

let goodput t ~within =
  per_sec t (Stats.Summary.count_at_most t.latencies (Time.to_ms within))

(* ------------------------------------------------------------------ *)
(* The request mix                                                     *)

type reads = No_reads | Ordered_reads of float | Local_reads of float

let keys = 64

(* Admission control answers [Busy] synchronously; a request gets this
   many jittered, exponentially spaced retries before it is dropped. *)
let busy_retries = 3
let retry_backoff_ms = 10.

let request ~sim ~rng ~reads replicas =
  let n = List.length replicas in
  fun i ~k ->
    let replica = List.nth replicas (i mod n) in
    let key = Printf.sprintf "k%d" (Rng.int rng keys) in
    let submit kind =
      let rec go attempt =
        Replica.submit replica kind ~on_response:(function
          | Action.Busy when attempt < busy_retries ->
            let cap = retry_backoff_ms *. (2. ** float_of_int attempt) in
            let delay = Time.of_ms (Float.max 0.001 (Rng.float rng cap)) in
            ignore (Sim.Engine.schedule sim ~delay (fun () -> go (attempt + 1)))
          | Action.Busy -> k false
          | Action.Committed _ | Action.Procedure_output _ | Action.Aborted ->
            k true)
      in
      go 0
    in
    let fraction =
      match reads with No_reads -> 0. | Ordered_reads f | Local_reads f -> f
    in
    if Rng.float rng 1.0 < fraction then
      match reads with
      | Local_reads _ ->
        Replica.local_query replica [ key ] ~on_response:(fun _ -> k true)
      | No_reads | Ordered_reads _ -> submit (Action.Query [ key ])
    else begin
      (* The never-taken commutative-write coin: kept so seeds replay. *)
      ignore (Rng.float rng 1.0);
      let v = Rng.int rng 1000 in
      submit (Action.Update [ Op.Set (key, Value.Int v) ])
    end

(* ------------------------------------------------------------------ *)
(* The paper's §7 measurement                                          *)

type protocol =
  | Engine_protocol of Disk.mode
  | Corel_protocol
  | Twopc_protocol

let protocol_name = function
  | Engine_protocol Disk.Forced -> "engine (forced writes)"
  | Engine_protocol Disk.Delayed -> "engine (delayed writes)"
  | Corel_protocol -> "COReL"
  | Twopc_protocol -> "2PC"

type result = {
  r_throughput : float;
  r_mean_latency_ms : float;
  r_p99_latency_ms : float;
  r_completed : int;
}

(* A cluster of [servers] nodes and its one-action submit: the paper
   measures the replication engines themselves, so a client's answer is
   the action's global order, with no database work — a no-op update
   keeps the executor trivial. *)
let cluster ~net_config ~params ~servers ~seed = function
  | Engine_protocol mode ->
    let disk_config =
      match mode with
      | Disk.Forced -> Disk.default_forced
      | Disk.Delayed -> Disk.default_delayed
    in
    let w =
      World.make ~net_config ~params ~disk_config ~attach_cpu:true ~seed
        ~n:servers ()
    in
    ( World.sim w,
      fun node ~k ->
        Replica.submit (World.replica w node) (Action.Update [])
          ~on_response:(fun _ -> k ()) )
  | Corel_protocol ->
    let cluster =
      Repro_baselines.Corel.make_cluster ~net_config ~params ~seed
        ~nodes:(List.init servers Fun.id) ()
    in
    Repro_baselines.Corel.start cluster;
    ( Repro_baselines.Corel.sim cluster,
      fun node ~k ->
        Repro_baselines.Corel.submit cluster ~node ~on_response:k () )
  | Twopc_protocol ->
    let cluster =
      Repro_baselines.Twopc.make_cluster ~net_config ~seed
        ~nodes:(List.init servers Fun.id) ()
    in
    ( Repro_baselines.Twopc.sim cluster,
      fun node ~k ->
        Repro_baselines.Twopc.submit cluster ~node
          ~on_response:(fun _ -> k ())
          () )

let run ?(net_config = Network.lan_gigabit)
    ?(params = Repro_gcs.Params.default) ?(servers = 14)
    ?(warmup = Time.of_sec 2.) ?(duration = Time.of_sec 8.) ?(seed = 97)
    ~clients protocol =
  let sim, submit = cluster ~net_config ~params ~servers ~seed protocol in
  (* Let membership / views settle before attaching clients. *)
  Sim.Engine.run ~until:warmup sim;
  let loop =
    closed sim ~clients ~issue:(fun i ~k ->
        submit (i mod servers) ~k:(fun () -> k true))
  in
  (* One extra second of ramp before the measurement window opens. *)
  let ramp = Time.add warmup ~span:(Time.of_sec 1.) in
  Sim.Engine.run ~until:ramp sim;
  measure loop;
  Sim.Engine.run ~until:(Time.add ramp ~span:duration) sim;
  {
    r_throughput = throughput loop;
    r_mean_latency_ms = Stats.Summary.mean loop.latencies;
    r_p99_latency_ms = Stats.Summary.percentile loop.latencies 99.;
    r_completed = loop.completed;
  }
