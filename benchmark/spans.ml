(* Bench-side spans around calls into the layers, kept in memory and
   written out when the benchmark ends.

   Two clocks: host spans (microseconds of wall time around a public
   call the benchmark makes) and virtual spans (simulated microseconds
   of one client request: due -> response, with an instant child per
   replica that applied it).  Spans of one request share its id.  A
   span's self time is its duration minus the part of it that its child
   spans cover. *)

type clock = Host | Virtual

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 = root *)
  clock : clock;
  start_us : float;
  stop_us : float;
  request : string;  (* "" when the span belongs to no client request *)
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable open_ : int list;  (* enclosing host spans, innermost first *)
}

let create () = { spans = []; next = 1; open_ = [] }

let now_us () = Unix.gettimeofday () *. 1e6

let record t ~name ~parent ~clock ~start_us ~stop_us ~request =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; clock; start_us; stop_us; request } :: t.spans;
  id

(* A host span around [f ()], nested under the innermost open one. *)
let host t name f =
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  let id = t.next in
  t.next <- id + 1;
  t.open_ <- id :: t.open_;
  let start_us = now_us () in
  let finish () =
    t.open_ <- List.tl t.open_;
    t.spans <-
      { id; name; parent; clock = Host; start_us; stop_us = now_us (); request = "" }
      :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Per span name: (count, total µs, self µs).  Children of one parent
   never overlap on the host clock (calls nest), and a virtual request's
   children are instants, so the covered part is the sum of the
   children's durations clipped to the parent. *)
let self_times t =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p ->
        let lo = Float.max s.start_us p.start_us
        and hi = Float.min s.stop_us p.stop_us in
        let c = Option.value (Hashtbl.find_opt covered p.id) ~default:0. in
        Hashtbl.replace covered p.id (c +. Float.max 0. (hi -. lo))
      | None -> ())
    t.spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.stop_us -. s.start_us in
      let self =
        dur -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.
      in
      let n, total, self_total =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace acc s.name (n + 1, total +. dur, self_total +. self))
    t.spans;
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Time under the outermost spans. *)
let total_us t =
  List.fold_left
    (fun acc s -> if s.parent = 0 then acc +. (s.stop_us -. s.start_us) else acc)
    0. t.spans

let to_json t =
  let span s =
    Json.Obj
      [
        ("id", Json.Num (float_of_int s.id));
        ("name", Json.Str s.name);
        ("parent", Json.Num (float_of_int s.parent));
        ("clock", Json.Str (match s.clock with Host -> "host" | Virtual -> "virtual"));
        ("start_us", Json.Num s.start_us);
        ("stop_us", Json.Num s.stop_us);
        ("request", Json.Str s.request);
      ]
  in
  let summary =
    List.map
      (fun (name, (n, total, self)) ->
        Json.Obj
          [
            ("name", Json.Str name);
            ("count", Json.Num (float_of_int n));
            ("total_us", Json.Num total);
            ("self_us", Json.Num self);
          ])
      (self_times t)
  in
  Json.Obj
    [
      ("self_times", Json.Arr summary);
      ("spans", Json.Arr (List.rev_map span t.spans));
    ]
