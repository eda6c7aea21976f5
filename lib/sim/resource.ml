(* The waiting jobs are two rings pushed and popped together, and the
   completion of the running job is one kept closure: a job costs no
   allocation beyond its callback. *)
type t = {
  engine : Engine.t;
  durations : Time.t Ring.t;
  jobs : (unit -> unit) Ring.t;
  mutable current : unit -> unit; (* callback of the running job *)
  mutable running : bool;
  mutable busy : Time.t;
  mutable generation : int; (* bumped on reset to orphan the in-flight completion *)
  mutable completion : unit -> unit;
  mutable on_reset : (unit -> unit) list;
}

let idle () = ()

let start_next t =
  if Ring.is_empty t.jobs then t.running <- false
  else begin
    let duration = Ring.pop t.durations in
    t.current <- Ring.pop t.jobs;
    t.running <- true;
    t.busy <- Time.add t.busy ~span:duration;
    Engine.schedule t.engine ~delay:duration t.completion
  end

(* The completion of the current generation: a completion left in the
   queue by [reset] still fires, and does nothing. *)
let completion t =
  let generation = t.generation in
  fun () ->
    if generation = t.generation then begin
      let k = t.current in
      t.current <- idle;
      k ();
      start_next t
    end

let create engine =
  let t =
    {
      engine;
      durations = Ring.create ();
      jobs = Ring.create ();
      current = idle;
      running = false;
      busy = Time.zero;
      generation = 0;
      completion = idle;
      on_reset = [];
    }
  in
  t.completion <- completion t;
  t

let submit t ~duration k =
  Ring.push t.durations duration;
  Ring.push t.jobs k;
  if not t.running then start_next t
  [@@analysis.cost "O(1); alloc O(1)"]

let queue_length t = Ring.length t.jobs + if t.running then 1 else 0
let busy_time t = t.busy
let on_reset t f = t.on_reset <- f :: t.on_reset

let reset t =
  Ring.clear t.durations;
  Ring.clear t.jobs;
  t.current <- idle;
  t.running <- false;
  t.generation <- t.generation + 1;
  t.completion <- completion t;
  List.iter (fun f -> f ()) (List.rev t.on_reset)
