(* Unit and property tests for the simulation kernel. *)

open Repro_sim

let test_time_conversions () =
  Alcotest.(check int) "ms to us" 1_500 (Time.to_us (Time.of_ms 1.5));
  Alcotest.(check int) "sec to us" 2_000_000 (Time.to_us (Time.of_sec 2.));
  Alcotest.(check (float 1e-9)) "roundtrip" 0.25 (Time.to_sec (Time.of_sec 0.25));
  Alcotest.(check int) "add" 30 (Time.to_us (Time.add (Time.of_us 10) ~span:(Time.of_us 20)));
  Alcotest.(check int) "diff" 5 (Time.to_us (Time.diff (Time.of_us 12) (Time.of_us 7)));
  Alcotest.check_raises "negative of_us" (Invalid_argument "Time.of_us: negative")
    (fun () -> ignore (Time.of_us (-1)));
  Alcotest.check_raises "negative diff" (Invalid_argument "Time.diff: negative result")
    (fun () -> ignore (Time.diff (Time.of_us 1) (Time.of_us 2)))

let test_time_scale () =
  Alcotest.(check int) "scale up" 150 (Time.to_us (Time.scale (Time.of_us 100) 1.5));
  Alcotest.(check int) "scale zero" 0 (Time.to_us (Time.scale (Time.of_us 100) 0.))

let test_rng_chance_matches_float () =
  let a = Rng.of_int 9 and b = Rng.of_int 9 in
  for i = 0 to 999 do
    let p = float_of_int (i mod 11) /. 10. in
    Alcotest.(check bool) "same draw, same answer" (Rng.float b 1.0 < p) (Rng.chance a p)
  done

let test_rng_determinism () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independence () =
  let parent = Rng.of_int 1 in
  let child = Rng.split parent in
  (* Drawing from the child must not change the parent's future draws
     relative to a parent that split but never used the child. *)
  let parent' = Rng.of_int 1 in
  let _child' = Rng.split parent' in
  ignore (Rng.int child 100);
  Alcotest.(check int) "parent unaffected" (Rng.int parent' 1000) (Rng.int parent 1000)

let test_rng_bounds () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0. && v < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.of_int 9 in
  let l = List.init 20 Fun.id in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort Int.compare s)

let test_keyed_heap_ordering () =
  let h = Heap.create ~filler:0 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iteri
    (fun i k -> Heap.push h ~key:k ~tie:i (k * 10))
    [ 5; 1; 9; 3; 7; 2; 8; 0; 4; 6 ];
  Alcotest.(check int) "length" 10 (Heap.length h);
  Alcotest.(check int) "min key" 0 (Heap.min_key h);
  let drained = List.init 10 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "sorted by key"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    drained;
  Alcotest.(check bool) "drained empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop empty raises" true
    (match Heap.pop h with
    | exception Heap.Empty -> true
    | _ -> false)

let test_keyed_heap_tiebreak () =
  (* Equal primary keys drain in tiebreak order — the FIFO guarantee the
     event queue relies on for same-instant timers. *)
  let h = Heap.create ~filler:0 in
  List.iter (fun t -> Heap.push h ~key:7 ~tie:t t) [ 3; 1; 4; 0; 2 ];
  Heap.push h ~key:2 ~tie:99 99;
  Alcotest.(check int) "lower key first" 99 (Heap.pop h);
  Alcotest.(check (list int)) "ties in push order" [ 0; 1; 2; 3; 4 ]
    (List.init 5 (fun _ -> Heap.pop h))

let prop_keyed_heap_sorts =
  QCheck.Test.make ~name:"keyed heap drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = Heap.create ~filler:0 in
      List.iteri (fun i k -> Heap.push h ~key:k ~tie:i k) l;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else drain (Heap.pop h :: acc)
      in
      drain [] = List.sort Int.compare l)

(* The heap against a model, over interleaved pushes and pops: keys
   repeat (the tiebreak is the push count, unique as the engine's
   scheduling sequence is), and up to 300 operations cross several
   doublings of the 16-entry start.  The model pops the first entry of
   a stable sort by (key, tie). *)
let prop_keyed_heap_model =
  let op = QCheck.Gen.(frequency [ (3, map Option.some (int_bound 12)); (1, return None) ]) in
  QCheck.Test.make ~name:"keyed heap matches a sorted model" ~count:300
    QCheck.(make ~print:Print.(list (option int)) Gen.(list_size (0 -- 300) op))
    (fun ops ->
      let h = Heap.create ~filler:0 in
      let model = ref [] and pushed = ref 0 in
      let by_key (k1, t1) (k2, t2) = if k1 <> k2 then Int.compare k1 k2 else Int.compare t1 t2 in
      List.for_all
        (function
          | Some key ->
            Heap.push h ~key ~tie:!pushed !pushed;
            model := !model @ [ (key, !pushed) ];
            incr pushed;
            Heap.length h = List.length !model
          | None -> (
            match List.stable_sort by_key !model with
            | [] -> Heap.is_empty h
            | (key, tie) :: rest ->
              model := rest;
              Heap.min_key h = key && Heap.pop h = tie))
        ops)

(* Pushes one payload into a heap and pops it again, keeping no
   reference to it here; [w] watches it. *)
let[@inline never] push_and_pop_watched h w ~key ~tie =
  let big = Bytes.create (1 lsl 20) in
  Weak.set w 0 (Some big);
  Heap.push h ~key ~tie big;
  ignore (Sys.opaque_identity (Heap.pop h))

let test_keyed_heap_frees_popped () =
  (* The 17th push doubles the 16-entry start: the payload pushed at a
     growth must not stay behind in the new free slots once popped. *)
  let h = Heap.create ~filler:Bytes.empty in
  for i = 1 to 16 do
    Heap.push h ~key:(100 + i) ~tie:i (Bytes.create 8)
  done;
  let w = Weak.create 1 in
  push_and_pop_watched h w ~key:0 ~tie:17;
  Gc.full_major ();
  Alcotest.(check bool) "payload pushed at a growth is freed" false (Weak.check w 0);
  push_and_pop_watched h w ~key:0 ~tie:18;
  Gc.full_major ();
  Alcotest.(check bool) "payload popped from the root is freed" false (Weak.check w 0);
  Alcotest.(check int) "the others stay" 16 (Heap.length h)

(* The ring against [Queue], over any interleaving of pushes and
   pops: growth and wrap-around must keep FIFO order. *)
let prop_ring_is_fifo =
  QCheck.Test.make ~name:"ring behaves as a FIFO" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let r = Ring.create () in
      let model = Queue.create () in
      List.for_all
        (function
          | Some x ->
            Ring.push r x;
            Queue.add x model;
            Ring.length r = Queue.length model
          | None ->
            if Queue.is_empty model then Ring.is_empty r
            else Ring.pop r = Queue.pop model)
        ops)

let test_ring_clear () =
  let r = Ring.create () in
  for i = 1 to 20 do
    Ring.push r i
  done;
  ignore (Ring.pop r);
  Ring.clear r;
  Alcotest.(check int) "empty" 0 (Ring.length r);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ring.pop: empty") (fun () ->
      ignore (Ring.pop r));
  Ring.push r 7;
  Alcotest.(check int) "usable again" 7 (Ring.pop r)

let test_engine_event_order () =
  let engine = Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  Engine.schedule engine ~delay:(Time.of_us 30) (record "c");
  Engine.schedule engine ~delay:(Time.of_us 10) (record "a");
  Engine.schedule engine ~delay:(Time.of_us 20) (record "b");
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 30 (Time.to_us (Engine.now engine))

let test_engine_fifo_tiebreak () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule engine ~delay:(Time.of_us 10) (fun () -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:(Time.of_ms 1.) (fun () -> incr fired);
  Engine.schedule engine ~delay:(Time.of_ms 5.) (fun () -> incr fired);
  Engine.run ~until:(Time.of_ms 2.) engine;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock at limit" 2_000 (Time.to_us (Engine.now engine));
  Engine.run engine;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:(Time.of_us 10) (fun () ->
      log := "outer" :: !log;
      Engine.schedule engine ~delay:(Time.of_us 5) (fun () -> log := "inner" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "nested runs" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock" 15 (Time.to_us (Engine.now engine))

let test_engine_reusable_timer () =
  let engine = Engine.create () in
  let order = ref [] in
  let record tag () = order := (tag, Time.to_us (Engine.now engine)) :: !order in
  let timer = record "r" in
  Engine.schedule_at engine ~at:(Time.of_us 30) timer;
  Engine.schedule engine ~delay:(Time.of_us 10) (record "a");
  Engine.schedule_at engine ~at:(Time.of_us 10) timer;
  Engine.schedule engine ~delay:(Time.of_us 10) (record "b");
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "each pending instance fires once, in scheduling order at its time"
    [ ("a", 10); ("r", 10); ("b", 10); ("r", 30) ]
    (List.rev !order);
  Alcotest.(check int) "events executed" 4 (Engine.events_executed engine);
  Alcotest.check_raises "the past is refused"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at engine ~at:(Time.of_us 1) timer)

let test_engine_drain () =
  let engine = Engine.create () in
  let rec tick () = Engine.schedule engine ~delay:(Time.of_us 10) tick in
  tick ();
  Alcotest.check_raises "a self-rescheduling closure never quiesces"
    (Invalid_argument "Engine.drain: event queue did not quiesce within max_steps")
    (fun () -> ignore (Engine.drain ~max_steps:100 engine));
  let engine = Engine.create () in
  let fired = ref 0 in
  let rec chain n () =
    incr fired;
    if n > 0 then Engine.schedule engine ~delay:Time.zero (chain (n - 1))
  in
  Engine.schedule engine ~delay:(Time.of_us 5) (chain 3);
  Engine.schedule engine ~delay:(Time.of_us 1) (fun () -> incr fired);
  Alcotest.(check int) "returns the events executed" 5 (Engine.drain engine);
  Alcotest.(check int) "every event ran" 5 !fired;
  Alcotest.(check int) "queue empty" 0 (Engine.pending engine);
  Alcotest.(check int) "an empty queue drains nothing" 0 (Engine.drain engine)

let test_resource_serialises () =
  let engine = Engine.create () in
  let r = Resource.create engine in
  let finish = ref [] in
  Resource.submit r ~duration:(Time.of_us 100) (fun () ->
      finish := ("a", Time.to_us (Engine.now engine)) :: !finish);
  Resource.submit r ~duration:(Time.of_us 50) (fun () ->
      finish := ("b", Time.to_us (Engine.now engine)) :: !finish);
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "serial completion times"
    [ ("a", 100); ("b", 150) ]
    (List.rev !finish);
  Alcotest.(check int) "busy time" 150 (Time.to_us (Resource.busy_time r))

let test_resource_reset () =
  let engine = Engine.create () in
  let r = Resource.create engine in
  let fired = ref false in
  Resource.submit r ~duration:(Time.of_us 100) (fun () -> fired := true);
  Resource.reset r;
  Engine.run engine;
  Alcotest.(check bool) "reset drops jobs" false !fired

let test_resource_reset_hooks () =
  let engine = Engine.create () in
  let r = Resource.create engine in
  let log = ref [] in
  Resource.on_reset r (fun () -> log := ("first", Resource.queue_length r) :: !log);
  Resource.on_reset r (fun () -> log := ("second", Resource.queue_length r) :: !log);
  Resource.submit r ~duration:(Time.of_us 100) (fun () -> log := ("job", 0) :: !log);
  Resource.submit r ~duration:(Time.of_us 100) (fun () -> log := ("job", 0) :: !log);
  Alcotest.(check int) "one running, one waiting" 2 (Resource.queue_length r);
  Resource.reset r;
  Resource.submit r ~duration:(Time.of_us 10) (fun () ->
      log := ("after", Time.to_us (Engine.now engine)) :: !log);
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "hooks run in order after the jobs are dropped; the orphaned completion is silent"
    [ ("first", 0); ("second", 0); ("after", 10) ]
    (List.rev !log)

let test_summary_stats () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.Summary.percentile s 50.);
  Alcotest.(check int) "at most 3" 3 (Stats.Summary.count_at_most s 3.)

let test_timeline_rates () =
  let tl = Stats.Timeline.create ~bucket:(Time.of_sec 1.) in
  Stats.Timeline.record tl ~at:(Time.of_ms 100.);
  Stats.Timeline.record tl ~at:(Time.of_ms 200.);
  Stats.Timeline.record tl ~at:(Time.of_ms 1500.);
  (match Stats.Timeline.rates tl with
  | [ (t0, r0); (t1, r1) ] ->
    Alcotest.(check (float 1e-9)) "bucket 0 start" 0. t0;
    Alcotest.(check (float 1e-9)) "bucket 0 rate" 2. r0;
    Alcotest.(check (float 1e-9)) "bucket 1 start" 1. t1;
    Alcotest.(check (float 1e-9)) "bucket 1 rate" 1. r1
  | l -> Alcotest.failf "expected 2 buckets, got %d" (List.length l));
  ()

let prop_exponential_mean =
  QCheck.Test.make ~name:"exponential draws average near the mean" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2000 in
      let sum = ref 0. in
      for _ = 1 to n do
        sum := !sum +. Rng.exponential rng ~mean:5.0
      done;
      let avg = !sum /. float_of_int n in
      avg > 4.0 && avg < 6.0)

let test_summary_percentile_interpolates () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 0.; 10. ];
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.5
    (Stats.Summary.percentile s 25.);
  Alcotest.(check (float 1e-9)) "p100 is max" 10.
    (Stats.Summary.percentile s 100.);
  Alcotest.(check bool) "empty summary yields nan" true
    (Float.is_nan (Stats.Summary.percentile (Stats.Summary.create ()) 50.))

let prop_engine_executes_all =
  QCheck.Test.make ~name:"engine executes every scheduled event" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun delays ->
      let engine = Engine.create () in
      let count = ref 0 in
      List.iter
        (fun d -> Engine.schedule engine ~delay:(Time.of_us d) (fun () -> incr count))
        delays;
      Engine.run engine;
      !count = List.length delays)

(* The engine's near events sit in a 1024 µs timing wheel; later ones
   wait in a heap until the wheel reaches them. *)
let wheel = 1024

(* A seeded schedule against a model: events at random due times, some
   scheduling more from inside their own run, and one kept closure
   pending several times at once.  Due times range from the clock
   itself (so many share a µs) to three wheel spans ahead, and every
   fourth falls on a 256 µs grid, where far events that move into the
   wheel meet direct schedules to the same µs.  The schedule runs to
   random limits, and after each one more events are scheduled between
   the clock and the next event.  Every executed event must be the
   first entry of a stable sort by (due time, scheduling order) of the
   instances pending, and [pending] must count them. *)
let prop_engine_schedule_model =
  QCheck.Test.make ~name:"engine follows a sorted model" ~count:100 QCheck.small_nat
    (fun seed ->
      let engine = Engine.create ~seed () in
      let rng = Rng.of_int seed in
      let model = ref [] and scheduled = ref 0 and ok = ref true in
      let now () = Time.to_us (Engine.now engine) in
      let by_due (d1, s1, _) (d2, s2, _) =
        if d1 <> d2 then Int.compare d1 d2 else Int.compare s1 s2
      in
      let check tag =
        match List.stable_sort by_due !model with
        | (due, _, expected) :: rest ->
          model := rest;
          if expected <> tag || due <> now () || Engine.pending engine <> List.length rest
          then ok := false
        | [] -> ok := false
      in
      let schedule_at due f =
        Engine.schedule_at engine ~at:(Time.of_us due) f;
        incr scheduled
      in
      let due () =
        match Rng.int rng 4 with
        | 0 -> now () + [| 0; 0; 5; 10; 10; 40 |].(Rng.int rng 6)
        | 1 -> now () + Rng.int rng ((3 * wheel) + 1)
        | 2 -> now () + [| wheel - 1; wheel; wheel + 1; 2 * wheel |].(Rng.int rng 4)
        | _ -> ((now () / 256) + 1 + Rng.int rng 12) * 256
      in
      (* [kept] is tagged -1; every other event is tagged with its
         scheduling number. *)
      let rec kept () = check (-1)
      and schedule tag at f =
        model := !model @ [ (at, !scheduled, tag) ];
        schedule_at at f
      and spawn depth at = schedule !scheduled at (event !scheduled depth)
      and event tag depth () =
        check tag;
        if depth < 4 then
          for _ = 1 to Rng.int rng 4 do
            if Rng.int rng 4 = 0 then schedule (-1) (due ()) kept else spawn (depth + 1) (due ())
          done
      in
      for _ = 1 to 10 do
        spawn 0 (due ());
        schedule (-1) (due ()) kept
      done;
      let rounds = ref 0 in
      while !model <> [] && !rounds < 100 do
        incr rounds;
        let limit = now () + Rng.int rng (3 * wheel) in
        Engine.run ~until:(Time.of_us limit) engine;
        if now () <> limit then ok := false;
        match List.stable_sort by_due !model with
        | (next, _, _) :: _ ->
          for _ = 1 to Rng.int rng 3 do
            spawn 4 (now () + Rng.int rng (next - now () + 1))
          done
        | [] -> ()
      done;
      Engine.run engine;
      !ok && !model = [] && Engine.pending engine = 0)

(* Once the wheel's entries and the far heap have grown, a step
   allocates nothing, near or far. *)
let test_engine_step_allocates_nothing () =
  let engine = Engine.create () in
  let rec near () = Engine.schedule engine ~delay:(Time.of_us 7) near
  and far () = Engine.schedule engine ~delay:(Time.of_us (5 * wheel)) far in
  for _ = 1 to 50 do
    near ();
    far ()
  done;
  let steps n =
    for _ = 1 to n do
      ignore (Engine.step engine)
    done
  in
  steps 10_000;
  let before = Gc.minor_words () in
  steps 10_000;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "every instance still pending" 100 (Engine.pending engine);
  Alcotest.(check (float 0.)) "words allocated" 0. allocated

(* Schedules a fresh closure that holds a watched block, near or far,
   keeping no reference to either here. *)
let[@inline never] schedule_watched engine w ~delay =
  let big = Bytes.create (1 lsl 20) in
  Weak.set w 0 (Some big);
  Engine.schedule engine ~delay:(Time.of_us delay) (fun () ->
      ignore (Sys.opaque_identity (Bytes.length big)))

(* A fired closure is dropped by the queue: neither the wheel's entry
   nor the far heap's slot keeps it (or what it holds) alive. *)
let test_engine_fired_closure_freed () =
  let engine = Engine.create () in
  let rec tick () = Engine.schedule engine ~delay:(Time.of_us 3) tick in
  tick ();
  List.iter
    (fun delay ->
      let w = Weak.create 1 in
      schedule_watched engine w ~delay;
      Engine.run ~until:(Time.add (Engine.now engine) ~span:(Time.of_us (delay + 10))) engine;
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "closure fired after %d us is freed" delay)
        false (Weak.check w 0))
    [ 5; 3 * wheel ];
  Alcotest.(check int) "the ticker stays" 1 (Engine.pending engine)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "scale" `Quick test_time_scale;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "chance matches float" `Quick test_rng_chance_matches_float;
        ] );
      ( "heap",
        [
          Alcotest.test_case "keyed ordering" `Quick test_keyed_heap_ordering;
          Alcotest.test_case "keyed tie-break" `Quick test_keyed_heap_tiebreak;
          QCheck_alcotest.to_alcotest prop_keyed_heap_sorts;
          QCheck_alcotest.to_alcotest prop_keyed_heap_model;
          Alcotest.test_case "popped payload is freed" `Quick test_keyed_heap_frees_popped;
        ] );
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_is_fifo;
          Alcotest.test_case "clear" `Quick test_ring_clear;
        ] );
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "fifo tie-break" `Quick test_engine_fifo_tiebreak;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          QCheck_alcotest.to_alcotest prop_engine_executes_all;
          Alcotest.test_case "reusable timer" `Quick test_engine_reusable_timer;
          Alcotest.test_case "drain" `Quick test_engine_drain;
          Alcotest.test_case "a step allocates nothing" `Quick
            test_engine_step_allocates_nothing;
          Alcotest.test_case "a fired closure is not kept" `Quick
            test_engine_fired_closure_freed;
          QCheck_alcotest.to_alcotest prop_engine_schedule_model;
        ] );
      ( "distributions",
        [ QCheck_alcotest.to_alcotest prop_exponential_mean ] );
      ( "resource",
        [
          Alcotest.test_case "serialises jobs" `Quick test_resource_serialises;
          Alcotest.test_case "reset drops jobs" `Quick test_resource_reset;
          Alcotest.test_case "reset hooks" `Quick test_resource_reset_hooks;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_stats;
          Alcotest.test_case "timeline rates" `Quick test_timeline_rates;
          Alcotest.test_case "percentile interpolation" `Quick
            test_summary_percentile_interpolates;
        ] );
    ]
