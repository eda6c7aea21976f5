(* The event queue is a hashed timing wheel (Varghese & Lauck) for near
   events and the int-keyed heap for far ones.  Almost every event of a
   run is due within tens of µs, so it lands in the wheel: [wheel]
   slots of 1 µs cover [base, base + wheel), and slot [due land mask]
   is a FIFO of the closures due at [due], threaded through flat
   arrays — per-slot [head]/[tail], a per-entry [next] that doubles as
   the free list, and the closures in [fns].  A scheduling appends to
   its slot, so events due in the same µs fire in scheduling order.

   Events due at or beyond [base + wheel] go to [far], keyed by (due
   µs, scheduling sequence).  When [base] advances, the far events
   that come into range move into the wheel in (due, sequence) order
   before anything else can be scheduled there; every far event was
   scheduled before any later direct scheduling into the same slot, so
   each slot's FIFO stays in scheduling order.  [base] never passes the
   clock: a schedule at the clock or later then always hashes into
   the window it belongs to. *)
let wheel = 1024
let mask = wheel - 1
let nil = -1
let nop () = ()

type t = {
  mutable clock : Time.t;
  mutable seq : int; (* scheduling sequence of far events *)
  mutable base : int; (* µs at the wheel's first slot; <= clock *)
  head : int array; (* by slot: first entry, or [nil] *)
  tail : int array; (* by slot: last entry *)
  mutable next : int array; (* by entry: next in its slot, or in the free list *)
  mutable fns : (unit -> unit) array; (* by entry; a free entry holds [nop] *)
  mutable free : int; (* first free entry, or [nil] *)
  mutable near : int; (* entries in the wheel *)
  far : (unit -> unit) Heap.t;
  root_rng : Rng.t;
  mutable executed : int;
}

let create ?(seed = 1) () =
  {
    clock = Time.zero;
    seq = 0;
    base = 0;
    head = Array.make wheel nil;
    tail = Array.make wheel nil;
    next = [||];
    fns = [||];
    free = nil;
    near = 0;
    far = Heap.create ~filler:nop;
    root_rng = Rng.of_int seed;
    executed = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let events_executed t = t.executed
let pending t = t.near + Heap.length t.far

(* Double the entry arrays and thread the new entries onto the free
   list. *)
let grow t =
  let cap = Array.length t.next in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let next = Array.make ncap nil and fns = Array.make ncap nop in
  Array.blit t.next 0 next 0 cap;
  Array.blit t.fns 0 fns 0 cap;
  for e = cap to ncap - 2 do
    next.(e) <- e + 1
  done;
  t.next <- next;
  t.fns <- fns;
  t.free <- cap
  (* Amortized: the capacity doubles, so each entry is made once over
     the schedulings that fill it. *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* Append [f] to the FIFO of slot [due land mask]. *)
let enqueue t due f =
  if t.free = nil then grow t;
  let e = t.free in
  t.free <- t.next.(e);
  t.next.(e) <- nil;
  t.fns.(e) <- f;
  let s = due land mask in
  if t.head.(s) = nil then t.head.(s) <- e else t.next.(t.tail.(s)) <- e;
  t.tail.(s) <- e;
  t.near <- t.near + 1

let schedule_at t ~at action =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let due = Time.to_us at in
  if due < t.base + wheel then enqueue t due action
  else begin
    Heap.push t.far ~key:due ~tie:t.seq action;
    t.seq <- t.seq + 1
  end

let schedule t ~delay action = schedule_at t ~at:(Time.add t.clock ~span:delay) action

(* Moves the wheel's window to start at [due] (at most the next event's
   due time, so never past it) and moves the far events now in range
   into their slots, in (due, sequence) order. *)
let advance t due =
  t.base <- due;
  let horizon = due + wheel in
  while (not (Heap.is_empty t.far)) && Heap.min_key t.far < horizon do
    let at = Heap.min_key t.far in
    enqueue t at (Heap.pop t.far)
  done
  (* Amortized: each far event moves into the wheel once, at the cost
     of one heap pop. *)
  [@@analysis.cost "O(queue); alloc O(1)"]

(* The due time of the earliest event in the wheel, which holds at
   least one: the first non-empty slot from [base] on. *)
let first_near t =
  let due = ref t.base in
  while t.head.(!due land mask) = nil do
    incr due
  done;
  !due
  (* Bounded by the constant [wheel]: every entry is due within
     [base, base + wheel). *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* The due time of the next event; [max_int] when there is none. *)
let next_due t =
  if t.near > 0 then first_near t
  else if Heap.is_empty t.far then max_int
  else Heap.min_key t.far

(* Fires the head of slot [due], which is the next event. *)
let fire t due =
  advance t due;
  let s = due land mask in
  let e = t.head.(s) in
  let f = t.fns.(e) in
  t.fns.(e) <- nop;
  t.head.(s) <- t.next.(e);
  t.next.(e) <- t.free;
  t.free <- e;
  t.near <- t.near - 1;
  t.clock <- Time.of_us due;
  t.executed <- t.executed + 1;
  f ()

let step t =
  let due = next_due t in
  if due = max_int then false
  else begin
    fire t due;
    true
  end
  [@@analysis.hotpath "O(queue)"]

(* [base] stays where the last event left it when the clock jumps to
   [until]: the slots between hold nothing, and a later scan walks
   past them once. *)
let run ?until t =
  (* Below [max_int], the empty queue's [next_due]. *)
  let limit =
    match until with Some limit -> Int.min (Time.to_us limit) (max_int - 1) | None -> max_int - 1
  in
  let due = ref (next_due t) in
  while !due <= limit do
    fire t !due;
    due := next_due t
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
  if pending t > 0 then
    invalid_arg "Engine.drain: event queue did not quiesce within max_steps";
  !steps
