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
  let h = Heap.Keyed.create () in
  Alcotest.(check bool) "empty" true (Heap.Keyed.is_empty h);
  List.iteri
    (fun i k -> Heap.Keyed.push h ~key:k ~tie:i (k * 10))
    [ 5; 1; 9; 3; 7; 2; 8; 0; 4; 6 ];
  Alcotest.(check int) "length" 10 (Heap.Keyed.length h);
  Alcotest.(check int) "min key" 0 (Heap.Keyed.min_key h);
  Alcotest.(check int) "peek payload" 0 (Heap.Keyed.peek h);
  let drained = List.init 10 (fun _ -> Heap.Keyed.pop h) in
  Alcotest.(check (list int)) "sorted by key"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    drained;
  Alcotest.(check bool) "drained empty" true (Heap.Keyed.is_empty h);
  Alcotest.(check bool) "pop empty raises" true
    (match Heap.Keyed.pop h with
    | exception Heap.Keyed.Empty -> true
    | _ -> false)

let test_keyed_heap_tiebreak () =
  (* Equal primary keys drain in tiebreak order — the FIFO guarantee the
     event queue relies on for same-instant timers. *)
  let h = Heap.Keyed.create () in
  List.iter (fun t -> Heap.Keyed.push h ~key:7 ~tie:t t) [ 3; 1; 4; 0; 2 ];
  Heap.Keyed.push h ~key:2 ~tie:99 99;
  Alcotest.(check int) "lower key first" 99 (Heap.Keyed.pop h);
  Alcotest.(check (list int)) "ties in push order" [ 0; 1; 2; 3; 4 ]
    (List.init 5 (fun _ -> Heap.Keyed.pop h))

let prop_keyed_heap_sorts =
  QCheck.Test.make ~name:"keyed heap drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = Heap.Keyed.create () in
      List.iteri (fun i k -> Heap.Keyed.push h ~key:k ~tie:i k) l;
      let rec drain acc =
        if Heap.Keyed.is_empty h then List.rev acc
        else drain (Heap.Keyed.pop h :: acc)
      in
      drain [] = List.sort Int.compare l)

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
  ignore (Engine.schedule engine ~delay:(Time.of_us 30) (record "c"));
  ignore (Engine.schedule engine ~delay:(Time.of_us 10) (record "a"));
  ignore (Engine.schedule engine ~delay:(Time.of_us 20) (record "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 30 (Time.to_us (Engine.now engine))

let test_engine_fifo_tiebreak () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule engine ~delay:(Time.of_us 10) (fun () ->
           order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule engine ~delay:(Time.of_us 10) (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check bool) "not active" false (Engine.is_active timer)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~delay:(Time.of_ms 1.) (fun () -> incr fired));
  ignore (Engine.schedule engine ~delay:(Time.of_ms 5.) (fun () -> incr fired));
  Engine.run ~until:(Time.of_ms 2.) engine;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock at limit" 2_000 (Time.to_us (Engine.now engine));
  Engine.run engine;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~delay:(Time.of_us 10) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule engine ~delay:(Time.of_us 5) (fun () ->
                log := "inner" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested runs" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock" 15 (Time.to_us (Engine.now engine))

let test_engine_controlled_scheduler () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.set_scheduler engine
    (Engine.Controlled
       (fun choices ->
         seen := List.map (fun c -> c.Engine.c_label) choices :: !seen;
         List.length choices - 1));
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Engine.schedule ~label:"a" engine ~delay:(Time.of_us 10) (record "a"));
  ignore (Engine.schedule ~label:"b" engine ~delay:(Time.of_us 10) (record "b"));
  ignore (Engine.schedule ~label:"c" engine ~delay:(Time.of_us 10) (record "c"));
  ignore (Engine.schedule ~label:"d" engine ~delay:(Time.of_us 20) (record "d"));
  Engine.run engine;
  Alcotest.(check (list string))
    "callback picked last-first among the same-time batch" [ "c"; "b"; "a"; "d" ]
    (List.rev !order);
  Alcotest.(check (list (list string)))
    "callback saw shrinking label lists; singletons bypass it"
    [ [ "a"; "b"; "c" ]; [ "a"; "b" ] ]
    (List.rev !seen)

let test_engine_controlled_out_of_range () =
  let engine = Engine.create () in
  Engine.set_scheduler engine (Engine.Controlled (fun _ -> 99));
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Engine.schedule engine ~delay:(Time.of_us 10) (record "a"));
  ignore (Engine.schedule engine ~delay:(Time.of_us 10) (record "b"));
  Engine.run engine;
  Alcotest.(check (list string))
    "out-of-range choice falls back to scheduling order" [ "a"; "b" ]
    (List.rev !order)

let test_engine_reusable_timer () =
  let engine = Engine.create () in
  let order = ref [] in
  let record tag () = order := (tag, Time.to_us (Engine.now engine)) :: !order in
  let timer = Engine.make_timer (record "r") in
  Engine.schedule_timer engine timer ~at:(Time.of_us 30);
  ignore (Engine.schedule engine ~delay:(Time.of_us 10) (record "a"));
  Engine.schedule_timer engine timer ~at:(Time.of_us 10);
  ignore (Engine.schedule engine ~delay:(Time.of_us 10) (record "b"));
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "each pending instance fires once, in scheduling order at its time"
    [ ("a", 10); ("r", 10); ("b", 10); ("r", 30) ]
    (List.rev !order);
  Alcotest.(check int) "events executed" 4 (Engine.events_executed engine);
  Engine.schedule_timer engine timer ~at:(Time.of_us 40);
  Engine.schedule_timer engine timer ~at:(Time.of_us 50);
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check int) "cancel drops every pending instance" 4 (List.length !order);
  Alcotest.check_raises "the past is refused"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_timer engine timer ~at:(Time.of_us 1))

let test_engine_controlled_reusable () =
  let engine = Engine.create () in
  Engine.set_scheduler engine (Engine.Controlled (fun choices -> List.length choices - 1));
  let order = ref [] in
  let r = Engine.make_timer (fun () -> order := "r" :: !order) in
  Engine.schedule_timer engine r ~at:(Time.of_us 10);
  ignore
    (Engine.schedule ~label:"a" engine ~delay:(Time.of_us 10) (fun () -> order := "a" :: !order));
  Engine.schedule_timer engine r ~at:(Time.of_us 20);
  Engine.run engine;
  Alcotest.(check (list string)) "a controlled pick keeps each instance's place"
    [ "a"; "r"; "r" ] (List.rev !order);
  Alcotest.(check int) "clock at the last instance" 20 (Time.to_us (Engine.now engine))

let test_engine_stop () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.schedule engine ~delay:(Time.of_us 1) (fun () ->
         incr fired;
         Engine.stop engine));
  ignore (Engine.schedule engine ~delay:(Time.of_us 2) (fun () -> incr fired));
  Engine.run engine;
  Alcotest.(check int) "stopped after first" 1 !fired

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
        (fun d ->
          ignore (Engine.schedule engine ~delay:(Time.of_us d) (fun () -> incr count)))
        delays;
      Engine.run engine;
      !count = List.length delays)

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
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "controlled scheduler" `Quick
            test_engine_controlled_scheduler;
          Alcotest.test_case "controlled out-of-range" `Quick
            test_engine_controlled_out_of_range;
          QCheck_alcotest.to_alcotest prop_engine_executes_all;
          Alcotest.test_case "reusable timer" `Quick test_engine_reusable_timer;
          Alcotest.test_case "controlled reusable timer" `Quick
            test_engine_controlled_reusable;
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
