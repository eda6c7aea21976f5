(* A timer carries no due time of its own: the event queue keys each
   pending instance by (due time, scheduling sequence), so one timer may
   be pending several times at once (see [make_timer]). *)
type timer = { label : string; action : unit -> unit; mutable active : bool }

(* The pluggable scheduler decides which of the events *due at the
   earliest pending time* fires next.  [Fifo] (the default) is the
   historical behaviour: scheduling order breaks ties, keeping runs
   deterministic.  [Controlled pick] hands the due set (as labelled
   choices, scheduling order) to a callback — the hook a model checker
   or a chaos harness uses to explore same-instant interleavings
   without forking the simulator. *)
type choice = { c_at : Time.t; c_seq : int; c_label : string }
type scheduler = Fifo | Controlled of (choice list -> int)

(* The event queue is the int-keyed heap (due-time µs, scheduling
   sequence): ordering never calls a comparator closure and the Fifo
   pop allocates nothing — at 200 simulated replicas the queue churns
   per delivered message, and the old closure-compared [timer Heap.t]
   paid an indirect call per sift step on every push and pop. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : timer Heap.Keyed.t;
  root_rng : Rng.t;
  mutable stopping : bool;
  mutable scheduler : scheduler;
  mutable executed : int;
}

exception Stopped

let create ?(seed = 1) () =
  {
    clock = Time.zero;
    seq = 0;
    queue = Heap.Keyed.create ();
    root_rng = Rng.of_int seed;
    stopping = false;
    scheduler = Fifo;
    executed = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let set_scheduler t s = t.scheduler <- s
let events_executed t = t.executed

let make_timer action = { label = ""; action; active = true }

let schedule_timer t timer ~at =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  Heap.Keyed.push t.queue ~key:(Time.to_us at) ~tie:t.seq timer;
  t.seq <- t.seq + 1

let schedule_at ?(label = "") t ~at action =
  let timer = { label; action; active = true } in
  schedule_timer t timer ~at;
  timer

let schedule ?label t ~delay action =
  schedule_at ?label t ~at:(Time.add t.clock ~span:delay) action

let cancel timer = timer.active <- false
let is_active timer = timer.active
let pending t = Heap.Keyed.length t.queue
let stop t = t.stopping <- true

(* Pop the timer a [Controlled] scheduler selects among those due at
   the earliest pending time, reaping cancelled timers along the way,
   and return it with its due time.  Materialising the due set is
   queue-bounded and pops each stored timer at most once per scheduling
   decision; the model checker is the only consumer, so the Fifo fast
   path in [step] never pays for it. *)
let pop_controlled t pick =
  let q = t.queue in
  (* Reap cancelled timers first so choices are only live events. *)
  let rec head () =
    if (not (Heap.Keyed.is_empty q)) && not (Heap.Keyed.peek q).active then begin
      ignore (Heap.Keyed.pop q);
      head ()
    end
  in
  head ();
  if Heap.Keyed.is_empty q then None
  else begin
    let at = Heap.Keyed.min_key q in
    let rec take acc =
      if Heap.Keyed.is_empty q || Heap.Keyed.min_key q <> at then List.rev acc
      else begin
        let seq = Heap.Keyed.min_tie q in
        let timer = Heap.Keyed.pop q in
        take (if timer.active then (seq, timer) :: acc else acc)
      end
    in
    match take [] with
    | [ (_, timer) ] -> Some (at, timer)
    | due ->
      let choices =
        List.map
          (fun (seq, timer) -> { c_at = Time.of_us at; c_seq = seq; c_label = timer.label })
          due
      in
      let i = pick choices in
      let i = if i < 0 || i >= List.length due then 0 else i in
      List.iteri
        (fun j (seq, timer) -> if j <> i then Heap.Keyed.push q ~key:at ~tie:seq timer)
        due;
      Some (at, snd (List.nth due i))
  end
  [@@analysis.cost "O(queue); alloc O(queue)"]

let fire t timer ~at =
  if timer.active then begin
    t.clock <- Time.of_us at;
    t.executed <- t.executed + 1;
    timer.action ()
  end

let step t =
  match t.scheduler with
  | Fifo ->
    if Heap.Keyed.is_empty t.queue then false
    else begin
      let at = Heap.Keyed.min_key t.queue in
      fire t (Heap.Keyed.pop t.queue) ~at;
      true
    end
  | Controlled pick -> (
    match pop_controlled t pick with
    | None -> false
    | Some (at, timer) ->
      fire t timer ~at;
      true)
  [@@analysis.hotpath "O(queue)"]

let run ?until t =
  t.stopping <- false;
  let continue = ref true in
  while !continue do
    if t.stopping || Heap.Keyed.is_empty t.queue then continue := false
    else
      let next_at = Time.of_us (Heap.Keyed.min_key t.queue) in
      match until with
      | Some limit when Time.(next_at > limit) ->
        t.clock <- limit;
        continue := false
      | _ -> ignore (step t)
  done;
  match until with
  | Some limit when (not t.stopping) && Time.(t.clock < limit) -> t.clock <- limit
  | _ -> ()

(* Run until the queue is fully empty — the quiescence primitive of the
   model checker's controlled schedules, where every transition's local
   fallout (disk syncs, paced retransmissions) must settle before the
   next scheduling decision.  [max_steps] guards against a runaway
   schedule (a periodic timer would never quiesce). *)
let drain ?(max_steps = 1_000_000) t =
  let steps = ref 0 in
  while (not (Heap.Keyed.is_empty t.queue)) && !steps < max_steps do
    if step t then incr steps
  done;
  if not (Heap.Keyed.is_empty t.queue) then
    invalid_arg "Engine.drain: event queue did not quiesce within max_steps";
  !steps

let fingerprint t =
  Printf.sprintf "sim clock=%dus seq=%d pending=%d executed=%d"
    (Time.to_us t.clock) t.seq (pending t) t.executed
