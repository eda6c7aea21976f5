module Sim = Repro_sim
open Repro_db
open Repro_core

(* A cluster-aware client session: FIFO, one request in flight, durable
   request ids, deadline-driven failover with capped exponential
   backoff + full jitter.  All timing and randomness come from the sim,
   so a campaign is deterministic per seed.

   The reliability argument, end to end: sequence numbers are issued
   1, 2, 3, ... with one outstanding; every attempt of seq [s] carries
   the same [(client, s)] request id; the replica-side dedup window
   guarantees at most one attempt executes, and any attempt's response
   is the replicated response for [s] — so the first response to
   arrive completes [s] regardless of which attempt produced it, and
   the session may retry as aggressively as it likes without risking a
   double-apply. *)

let default_request_timeout = Sim.Time.of_ms 400.
let backoff_base = Sim.Time.of_ms 20.
let backoff_cap = Sim.Time.of_ms 2_000.

type op = {
  op_semantics : Action.semantics;
  op_size : int;
  op_kind : Action.kind;
  op_k : Action.response -> unit;
}

type t = {
  sim : Sim.Engine.t;
  rng : Sim.Rng.t;
  id : int;
  replicas : unit -> Replica.t list;
  request_timeout : Sim.Time.t;
      (* per-attempt deadline before the target is presumed dead,
         partitioned or hopelessly lagging *)
  queue : op Queue.t;
  mutable current : op option;
  mutable seq : int;  (* last issued sequence number *)
  mutable acked : int;  (* last completed sequence number *)
  mutable target : int;  (* index into [replicas ()] *)
  mutable attempt : int;  (* attempts made for the current seq *)
  mutable epoch : int;  (* invalidates stale deadlines/Busy handlers *)
  mutable stopped : bool;
  (* The live attempt's deadline and the [epoch] and [seq] it guards. *)
  mutable deadline : Sim.Time.t;
  mutable deadline_epoch : int;
  mutable deadline_seq : int;
  mutable timer_armed : bool;  (* [timer] is pending in the sim *)
  timer : unit -> unit;
  (* counters *)
  mutable retries : int;
  mutable failovers : int;
  mutable busy : int;
  mutable timeouts : int;
}

let id t = t.id
let issued t = t.seq
let acked t = t.acked
let retries t = t.retries
let failovers t = t.failovers
let busy_responses t = t.busy
let timeouts t = t.timeouts
let outstanding t = Queue.length t.queue + if t.current = None then 0 else 1
let stop t = t.stopped <- true

(* Capped exponential backoff with full jitter: uniformly random in
   (0, min cap (base * 2^(attempt-1))], drawn from the session's own
   split of the sim RNG stream. *)
let backoff_delay t =
  let base = Sim.Time.to_ms backoff_base in
  let cap = Sim.Time.to_ms backoff_cap in
  let exp =
    Float.min cap (base *. (2. ** float_of_int (min 16 (t.attempt - 1))))
  in
  Sim.Time.of_ms (Float.max 0.001 (Sim.Rng.float t.rng exp))

(* Rotate to the next live, ready replica (round-robin); stay put when
   none qualifies — the next deadline will rotate again, and by then a
   recovery or heal may have changed the picture. *)
let rotate_target t =
  let rs = t.replicas () in
  let n = List.length rs in
  if n > 0 then begin
    let usable i =
      match List.nth_opt rs ((t.target + i) mod n) with
      | Some r -> Replica.is_up r && Replica.is_ready r
      | None -> false
    in
    let rec find i = if i > n then 1 else if usable i then i else find (i + 1) in
    t.target <- (t.target + find 1) mod n
  end

(* A session has one deadline timer, pending at most once: each attempt
   records its deadline and arms the timer only when it is idle.  A
   timer that fires before the live deadline (it was armed by an earlier
   attempt) re-arms itself to it, and one that finds no live attempt
   stays idle — so a timeout fires exactly [request_timeout] after its
   attempt, and the event queue holds one deadline per session instead
   of one per attempt. *)
let arm_timer t =
  t.timer_armed <- true;
  Sim.Engine.schedule_at t.sim ~at:t.deadline t.timer

let rec on_timer t =
  t.timer_armed <- false;
  if (not t.stopped) && t.epoch = t.deadline_epoch && t.acked < t.deadline_seq
  then
    if Sim.Time.(t.deadline > Sim.Engine.now t.sim) then arm_timer t
    else begin
      t.timeouts <- t.timeouts + 1;
      t.failovers <- t.failovers + 1;
      rotate_target t;
      retry t
    end

and dispatch t =
  if (not t.stopped) && t.current = None then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some op ->
      t.current <- Some op;
      t.seq <- t.seq + 1;
      t.attempt <- 0;
      attempt t

and attempt t =
  match t.current with
  | None -> ()
  | Some op ->
    t.attempt <- t.attempt + 1;
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch and seq = t.seq in
    (* [List.nth], not [nth_opt]: no option box per attempt. *)
    (match List.nth (t.replicas ()) t.target with
    | r when Replica.is_up r && Replica.is_ready r ->
      Replica.submit_request r ~client:t.id ~semantics:op.op_semantics
        ~size:op.op_size ~req_seq:seq ~req_ack:t.acked op.op_kind
        ~on_response:(fun resp -> on_response t ~seq ~epoch resp)
    | _ | (exception Failure _) ->
      (* No usable target right now: burn the attempt, let the deadline
         below fire and rotate. *)
      ());
    t.deadline <- Sim.Time.add (Sim.Engine.now t.sim) ~span:t.request_timeout;
    t.deadline_epoch <- epoch;
    t.deadline_seq <- seq;
    if not t.timer_armed then arm_timer t

and on_response t ~seq ~epoch resp =
  if (not t.stopped) && t.acked < seq then
    match resp with
    | Action.Busy ->
      (* Admission shed the request before it entered the order: back
         off on the same target (the shed is load, not death).  Only
         the live attempt may react — a stale Busy is impossible today
         (it fires synchronously) but the guard keeps the single-driver
         invariant obvious. *)
      if t.epoch = epoch then begin
        t.busy <- t.busy + 1;
        retry t
      end
    | Action.Committed _ | Action.Procedure_output _ | Action.Aborted ->
      (* Any attempt's response completes the seq — replica-side dedup
         makes every attempt return the same replicated response. *)
      t.acked <- seq;
      t.epoch <- t.epoch + 1 (* kill the outstanding deadline *);
      let op = t.current in
      t.current <- None;
      (match op with Some op -> op.op_k resp | None -> ());
      dispatch t

and retry t =
  t.retries <- t.retries + 1;
  t.epoch <- t.epoch + 1 (* invalidate the pending deadline *);
  Sim.Engine.schedule t.sim ~delay:(backoff_delay t) (fun () ->
      if not t.stopped then attempt t)

let create ?(request_timeout = default_request_timeout) ~sim ~id ~replicas () =
  if id <= 0 then invalid_arg "Client.create: id must be positive";
  (* Spread clients across replicas; a start past the end of the list
     wraps, or the first attempt would wait out a whole deadline. *)
  let n = List.length (replicas ()) in
  let target = (id - 1) mod 64 in
  let target = if target < n then target else target mod max n 1 in
  let rng = Sim.Rng.split (Sim.Engine.rng sim) in
  let queue = Queue.create () in
  let rec t =
    {
      sim;
      rng;
      id;
      replicas;
      request_timeout;
      queue;
      current = None;
      seq = 0;
      acked = 0;
      target;
      attempt = 0;
      epoch = 0;
      stopped = false;
      deadline = Sim.Time.zero;
      deadline_epoch = 0;
      deadline_seq = 0;
      timer_armed = false;
      timer = (fun () -> on_timer t);
      retries = 0;
      failovers = 0;
      busy = 0;
      timeouts = 0;
    }
  in
  t

let exec t ?(semantics = Action.Strict) ?(size = 200) kind ~k =
  Queue.add { op_semantics = semantics; op_size = size; op_kind = kind; op_k = k }
    t.queue;
  dispatch t

(* Reads go through the ordered path with a request id of their own —
   NOT [Replica.local_query]: after a failover the new target has no
   session history for this client, and only ordering the read after
   the client's last write guarantees read-your-writes. *)
let read t keys ~k =
  exec t (Action.Query keys) ~k:(fun resp ->
      match resp with
      | Action.Committed rows -> k rows
      | Action.Procedure_output _ | Action.Aborted | Action.Busy -> k [])
