(* Traced-mode observers of a running world, driven from outside the
   program through public calls only:

   - a 1 ms virtual-time sampler of the event queue
     ([Sim.Engine.pending]), the deepest replica CPU queue
     ([Replica.cpu_stats]) and the client backlog ([Client.outstanding]);
   - a 100 µs poller that stamps, per replica, the first moment its
     state reflects each client request: a replica whose green count
     moved has its exactly-once window ([Replica.dedup_summary]) diffed,
     and every (client, seq) newly at or below a client's high-water
     mark is stamped there.

   Both are ordinary simulator events that only read state.  Adding
   them shifts no other event: same-instant ties are broken by
   scheduling order, which they leave intact among the program's own
   events, so a traced run makes the same decisions as an untraced one
   (the benchmark checks this). *)

module Sim = Repro_sim
module Time = Sim.Time
module Replica = Repro_core.Replica
module Engine = Repro_core.Engine

type request = {
  due : Time.t;
  mutable done_at : Time.t option;
  mutable applies : (int * Time.t) list;  (* replica -> first apply *)
}

type t = {
  sim : Sim.Engine.t;
  replicas : unit -> Replica.t list;
  outstanding : unit -> int;
  queue_depth : Sample.t;
  cpu_queue : Sample.t;
  backlog : Sample.t;
  bursts : Sample.t;  (* green positions gained per poll, when > 0 *)
  requests : (int * int, request) Hashtbl.t;
  mutable order : (int * int) list;  (* registration order, newest first *)
  last_green : (int, int) Hashtbl.t;
  last_hi : (int * int, int) Hashtbl.t;
  mutable running : bool;
}

let sample_every = Time.of_ms 1.
let poll_every = Time.of_us 100

let observe t r ~stamp =
  let node = Replica.node r in
  let now = Sim.Engine.now t.sim in
  List.iter
    (fun (client, hi, _) ->
      let prev =
        Option.value (Hashtbl.find_opt t.last_hi (node, client)) ~default:0
      in
      if stamp && hi > prev then
        for seq = prev + 1 to hi do
          match Hashtbl.find_opt t.requests (client, seq) with
          | Some req when not (List.mem_assoc node req.applies) ->
            req.applies <- (node, now) :: req.applies
          | Some _ | None -> ()
        done;
      if hi <> prev then Hashtbl.replace t.last_hi (node, client) hi)
    (Replica.dedup_summary r)

let poll t ~stamp =
  List.iter
    (fun r ->
      if Replica.is_up r && Replica.is_ready r then begin
        let node = Replica.node r in
        let g = Engine.green_count (Replica.engine r) in
        match Hashtbl.find_opt t.last_green node with
        | Some g0 when g0 = g -> ()
        | prev ->
          (match prev with
          | Some g0 when stamp && g > g0 -> Sample.add t.bursts (float_of_int (g - g0))
          | _ -> ());
          Hashtbl.replace t.last_green node g;
          observe t r ~stamp
      end)
    (t.replicas ())

let sample t =
  Sample.add t.queue_depth (float_of_int (Sim.Engine.pending t.sim));
  let deepest =
    List.fold_left
      (fun acc r ->
        match Replica.cpu_stats r with Some (q, _) -> max acc q | None -> acc)
      0 (t.replicas ())
  in
  Sample.add t.cpu_queue (float_of_int deepest);
  Sample.add t.backlog (float_of_int (t.outstanding ()))

let rec every t span f () =
  if t.running then begin
    f ();
    ignore (Sim.Engine.schedule t.sim ~delay:span (every t span f))
  end

let start ~sim ~replicas ~outstanding =
  let t =
    {
      sim;
      replicas;
      outstanding;
      queue_depth = Sample.create ();
      cpu_queue = Sample.create ();
      backlog = Sample.create ();
      bursts = Sample.create ();
      requests = Hashtbl.create 4096;
      order = [];
      last_green = Hashtbl.create 16;
      last_hi = Hashtbl.create 256;
      running = true;
    }
  in
  (* Baseline: what every replica reflects before the first request. *)
  poll t ~stamp:false;
  every t sample_every (fun () -> sample t) ();
  every t poll_every (fun () -> poll t ~stamp:true) ();
  t

let stop t =
  poll t ~stamp:true;
  t.running <- false

let register t ~client ~seq ~due =
  Hashtbl.replace t.requests (client, seq) { due; done_at = None; applies = [] };
  t.order <- (client, seq) :: t.order

let complete t ~client ~seq ~at =
  match Hashtbl.find_opt t.requests (client, seq) with
  | Some req -> req.done_at <- Some at
  | None -> ()

(* First-to-last replica apply of each request, in ms. *)
let apply_spreads t =
  let s = Sample.create () in
  Hashtbl.iter
    (fun _ req ->
      match req.applies with
      | _ :: _ :: _ ->
        let times = List.map (fun (_, at) -> Time.to_us at) req.applies in
        let lo = List.fold_left min max_int times
        and hi = List.fold_left max min_int times in
        Sample.add s (float_of_int (hi - lo) /. 1000.)
      | _ -> ())
    t.requests;
  s

(* Each request as a virtual span (due -> response) with one instant
   child per replica apply, all sharing the request's id. *)
let record_spans t spans =
  List.iter
    (fun ((client, seq) as key) ->
      let req = Hashtbl.find t.requests key in
      let request = Printf.sprintf "c%d.%d" client seq in
      let us at = float_of_int (Time.to_us at) in
      let stop = match req.done_at with Some at -> us at | None -> us req.due in
      let parent =
        Spans.record spans ~name:"request" ~parent:0 ~clock:Spans.Virtual
          ~start_us:(us req.due) ~stop_us:stop ~request
      in
      List.iter
        (fun (node, at) ->
          ignore
            (Spans.record spans
               ~name:(Printf.sprintf "apply.n%d" node)
               ~parent ~clock:Spans.Virtual ~start_us:(us at) ~stop_us:(us at)
               ~request))
        (List.rev req.applies))
    (List.rev t.order)
