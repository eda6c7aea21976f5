(* The event queue is the int-keyed heap (due-time µs, scheduling
   sequence) of closures: ordering never calls a comparator closure and
   a pop allocates nothing — at 200 simulated replicas the queue churns
   per delivered message.  The sequence key is what makes same-instant
   events fire in scheduling order. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : (unit -> unit) Heap.t;
  root_rng : Rng.t;
  mutable executed : int;
}

let create ?(seed = 1) () =
  {
    clock = Time.zero;
    seq = 0;
    queue = Heap.create ();
    root_rng = Rng.of_int seed;
    executed = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let events_executed t = t.executed
let pending t = Heap.length t.queue

let schedule_at t ~at action =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue ~key:(Time.to_us at) ~tie:t.seq action;
  t.seq <- t.seq + 1

let schedule t ~delay action = schedule_at t ~at:(Time.add t.clock ~span:delay) action

let step t =
  if Heap.is_empty t.queue then false
  else begin
    t.clock <- Time.of_us (Heap.min_key t.queue);
    let action = Heap.pop t.queue in
    t.executed <- t.executed + 1;
    action ();
    true
  end
  [@@analysis.hotpath "O(queue)"]

let run ?until t =
  let limit = match until with Some limit -> Time.to_us limit | None -> max_int in
  while (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= limit do
    ignore (step t)
  done;
  match until with
  | Some limit when Time.(t.clock < limit) -> t.clock <- limit
  | _ -> ()

(* Run until the queue is fully empty — the quiescence primitive of the
   model checker, where every transition's local fallout (disk syncs,
   paced retransmissions) must settle before the next transition.
   [max_steps] guards against a runaway schedule (a periodic timer would
   never quiesce). *)
let drain ?(max_steps = 1_000_000) t =
  let steps = ref 0 in
  while !steps < max_steps && step t do
    incr steps
  done;
  if not (Heap.is_empty t.queue) then
    invalid_arg "Engine.drain: event queue did not quiesce within max_steps";
  !steps
