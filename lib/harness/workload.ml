module SimE = Repro_sim.Engine
open Repro_sim
open Repro_db
open Repro_core

type mix = {
  read_fraction : float;
  commutative_fraction : float;
  optimized_reads : bool;
  keys : int;
  action_size : int;
}

let default_mix =
  {
    read_fraction = 0.;
    commutative_fraction = 0.;
    optimized_reads = false;
    keys = 64;
    action_size = 200;
  }

type t = {
  sim : SimE.t;
  mix : mix;
  rng : Rng.t;
  deadline : Time.t option;
  busy_retries : int;
  retry_backoff : Time.t;
  mutable measuring : bool;
  mutable stopped : bool;
  mutable completed : int;
  mutable good : int;  (* completed within the deadline *)
  latencies : Stats.Summary.t;
}

let key_of t n = Printf.sprintf "k%d" (n mod t.mix.keys)

let record t t0 =
  if t.measuring then begin
    t.completed <- t.completed + 1;
    let lat = Time.diff (SimE.now t.sim) t0 in
    (match t.deadline with
    | Some d when Time.compare lat d > 0 -> ()
    | Some _ | None -> t.good <- t.good + 1);
    Stats.Summary.add t.latencies (Time.to_ms lat)
  end

(* Issue one operation per the mix; [k] fires on completion (or on
   giving up after the Busy-retry budget — an open-loop client can't
   block forever on a shedding replica). *)
let issue t replica ~k =
  let t0 = SimE.now t.sim in
  let done_ () =
    record t t0;
    k ()
  in
  let key = key_of t (Rng.int t.rng t.mix.keys) in
  let submit_with submit =
    (* Admission control answers [Busy] synchronously; honor it with a
       couple of jittered, exponentially spaced retries, then drop the
       request as shed.  Sheds never count as completions. *)
    let rec go attempt =
      submit ~on_response:(fun resp ->
          match resp with
          | Action.Busy ->
            if attempt < t.busy_retries then begin
              let cap =
                Time.to_ms t.retry_backoff *. (2. ** float_of_int attempt)
              in
              let delay = Time.of_ms (Float.max 0.001 (Rng.float t.rng cap)) in
              ignore
                (SimE.schedule t.sim ~delay (fun () ->
                     if not t.stopped then go (attempt + 1) else k ()))
            end
            else k ()
          | Action.Committed _ | Action.Procedure_output _ | Action.Aborted ->
            done_ ())
    in
    go 0
  in
  if Rng.float t.rng 1.0 < t.mix.read_fraction then
    if t.mix.optimized_reads then
      Replica.local_query replica [ key ] ~on_response:(fun _ -> done_ ())
    else
      submit_with (fun ~on_response ->
          Replica.submit replica ~size:t.mix.action_size (Action.Query [ key ])
            ~on_response)
  else if Rng.float t.rng 1.0 < t.mix.commutative_fraction then
    submit_with (fun ~on_response ->
        Replica.submit replica ~semantics:Action.Commutative
          ~size:t.mix.action_size
          (Action.Update [ Op.Add (key, 1) ])
          ~on_response)
  else
    let v = Rng.int t.rng 1000 in
    submit_with (fun ~on_response ->
        Replica.submit replica ~size:t.mix.action_size
          (Action.Update [ Op.Set (key, Value.Int v) ])
          ~on_response)

let make ?deadline ?(busy_retries = 3) ?(retry_backoff = Time.of_ms 10.) ~sim
    ~mix () =
  {
    sim;
    mix;
    rng = Rng.split (SimE.rng sim);
    deadline;
    busy_retries;
    retry_backoff;
    measuring = false;
    stopped = false;
    completed = 0;
    good = 0;
    latencies = Stats.Summary.create ();
  }

let closed_loop ?deadline ?busy_retries ?retry_backoff ~sim ~mix ~clients
    ~replicas () =
  let t = make ?deadline ?busy_retries ?retry_backoff ~sim ~mix () in
  let n = List.length replicas in
  let rec client replica =
    if not t.stopped then issue t replica ~k:(fun () -> client replica)
  in
  List.iteri
    (fun i _ -> client (List.nth replicas (i mod n)))
    (List.init clients Fun.id);
  t

let open_loop ?deadline ?busy_retries ?retry_backoff ~sim ~mix ~rate_per_sec
    ~replicas () =
  let t = make ?deadline ?busy_retries ?retry_backoff ~sim ~mix () in
  let n = List.length replicas in
  let counter = ref 0 in
  let rec arrival () =
    if not t.stopped then begin
      let gap = Rng.exponential t.rng ~mean:(1. /. rate_per_sec) in
      ignore
        (SimE.schedule sim ~delay:(Time.of_sec gap) (fun () ->
             if not t.stopped then begin
               incr counter;
               let replica = List.nth replicas (!counter mod n) in
               issue t replica ~k:(fun () -> ());
               arrival ()
             end))
    end
  in
  arrival ();
  t

let start_measuring t =
  t.measuring <- true;
  t.completed <- 0;
  t.good <- 0

let stop t = t.stopped <- true
let completed t = t.completed
let latencies_ms t = t.latencies

let throughput t ~over =
  let secs = Time.to_sec over in
  if secs <= 0. then 0. else float_of_int t.completed /. secs

let goodput t ~over =
  let secs = Time.to_sec over in
  if secs <= 0. then 0. else float_of_int t.good /. secs
