(* Tests of the measurement/checking harness itself: the world helper,
   the consistency checker (including its ability to DETECT violations),
   and a smoke test of the experiment driver. *)

open Repro_net
open Repro_db
open Repro_core
open Repro_harness

let test_world_basics () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  Alcotest.(check int) "three replicas" 3 (List.length (World.replicas w));
  Alcotest.(check bool) "all primary" true
    (List.for_all Replica.in_primary (World.replicas w));
  World.submit_update w ~node:0 ~key:"k" 1;
  World.run w ~ms:500.;
  Alcotest.(check int) "one green action" 1
    (Engine.green_count (Replica.engine (World.replica w 1)))

let test_world_heal_and_settle () =
  let w = World.make ~n:4 () in
  World.run w ~ms:1000.;
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3 ] ];
  Replica.crash (World.replica w 2);
  World.run w ~ms:1000.;
  World.heal_and_settle w;
  Alcotest.(check bool) "all back up" true
    (List.for_all Replica.is_up (World.replicas w));
  Alcotest.(check bool) "all primary again" true
    (List.for_all Replica.in_primary (World.replicas w))

let test_checker_passes_on_healthy_world () =
  let w = World.make ~n:4 () in
  World.run w ~ms:1000.;
  for i = 1 to 10 do
    World.submit_update w ~node:(i mod 4) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:500.;
  Alcotest.(check int) "no violations" 0
    (List.length (Consistency.check_all ~converged:true (World.replicas w)))

let test_checker_detects_divergence () =
  (* Corrupt one replica's database behind the engine's back: the
     convergence check must notice. *)
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  World.submit_update w ~node:0 ~key:"k" 1;
  World.run w ~ms:500.;
  Database.apply (Replica.database (World.replica w 2)) [ Op.Set ("rogue", Value.Int 666) ];
  let violations = Consistency.check_convergence (World.replicas w) in
  Alcotest.(check bool) "divergence detected" true (List.length violations > 0)

let test_checker_single_primary_property () =
  let w = World.make ~n:5 () in
  World.run w ~ms:1000.;
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  Alcotest.(check int) "no single-primary violation under partition" 0
    (List.length (Consistency.check_single_primary (World.replicas w)))

let test_checker_assert_ok_raises () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  World.submit_update w ~node:0 ~key:"k" 1;
  World.run w ~ms:500.;
  Database.apply (Replica.database (World.replica w 1)) [ Op.Remove "k" ];
  Alcotest.(check bool) "assert_ok raises on corruption" true
    (try
       Consistency.assert_ok ~converged:true (World.replicas w);
       false
     with Failure _ -> true)

let test_experiment_smoke () =
  (* A tiny run of each protocol: sane, non-zero numbers. *)
  let duration = Repro_sim.Time.of_sec 2. in
  List.iter
    (fun protocol ->
      let r = Experiment.run ~servers:3 ~duration ~clients:2 protocol in
      let name = Experiment.protocol_name r.Experiment.r_protocol in
      Alcotest.(check bool)
        (name ^ " throughput positive")
        true
        (r.Experiment.r_throughput > 10.);
      Alcotest.(check bool)
        (name ^ " latency sane")
        true
        (r.Experiment.r_mean_latency_ms > 1.
        && r.Experiment.r_mean_latency_ms < 200.))
    [
      Experiment.Engine_protocol Repro_storage.Disk.Forced;
      Experiment.Corel_protocol;
      Experiment.Twopc_protocol;
    ]

let test_experiment_engine_beats_2pc () =
  let duration = Repro_sim.Time.of_sec 2. in
  let engine =
    Experiment.run ~servers:5 ~duration ~clients:5
      (Experiment.Engine_protocol Repro_storage.Disk.Forced)
  in
  let twopc = Experiment.run ~servers:5 ~duration ~clients:5 Experiment.Twopc_protocol in
  Alcotest.(check bool) "engine throughput higher" true
    (engine.Experiment.r_throughput > twopc.Experiment.r_throughput)

let test_session_program_order () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let s = Session.attach (World.replica w 0) ~client:1 in
  let log = ref [] in
  (* Three writes and a read queued at once: they must execute in program
     order and the read must see the last write (read-your-writes). *)
  Session.exec s (Action.Update [ Op.Set ("x", Value.Int 1) ]) ~k:(fun _ ->
      log := "w1" :: !log);
  Session.exec s (Action.Update [ Op.Set ("x", Value.Int 2) ]) ~k:(fun _ ->
      log := "w2" :: !log);
  Session.exec s (Action.Update [ Op.Set ("x", Value.Int 3) ]) ~k:(fun _ ->
      log := "w3" :: !log);
  Session.read s [ "x" ] ~k:(fun r ->
      match r with
      | [ ("x", Some (Value.Int 3)) ] -> log := "read3" :: !log
      | _ -> log := "read-wrong" :: !log);
  Alcotest.(check int) "all queued" 4 (Session.outstanding s);
  World.run w ~ms:1500.;
  Alcotest.(check (list string)) "program order + read-your-writes"
    [ "w1"; "w2"; "w3"; "read3" ]
    (List.rev !log);
  Alcotest.(check int) "completed" 4 (Session.completed s);
  Alcotest.(check int) "drained" 0 (Session.outstanding s)

let test_session_counts_aborts () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let s = Session.attach (World.replica w 1) ~client:2 in
  Session.exec s (Action.Update [ Op.Set ("seat", Value.Text "free") ])
    ~k:(fun _ -> ());
  Session.exec s
    (Action.Interactive
       {
         expected = [ ("seat", Some (Value.Text "busy")) ];
         updates = [];
       })
    ~k:(fun _ -> ());
  World.run w ~ms:1500.;
  Alcotest.(check int) "one abort" 1 (Session.aborted s)

let test_workload_closed_loop_counts () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let sim = World.sim w in
  let wl =
    Workload.closed_loop ~sim ~mix:Workload.default_mix ~clients:3
      ~replicas:(World.replicas w) ()
  in
  World.run w ~ms:500.;
  Workload.start_measuring wl;
  World.run w ~ms:2000.;
  let over = Repro_sim.Time.of_sec 2. in
  Alcotest.(check bool) "throughput positive" true
    (Workload.throughput wl ~over > 50.);
  Workload.stop wl;
  let at_stop = Workload.completed wl in
  World.run w ~ms:500.;
  Alcotest.(check bool) "stop halts issuing" true
    (Workload.completed wl - at_stop <= 3)

let test_workload_open_loop_rate () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let sim = World.sim w in
  let wl =
    Workload.open_loop ~sim ~mix:Workload.default_mix ~rate_per_sec:200.
      ~replicas:(World.replicas w) ()
  in
  World.run w ~ms:500.;
  Workload.start_measuring wl;
  World.run w ~ms:4000.;
  let rate = Workload.throughput wl ~over:(Repro_sim.Time.of_sec 4.) in
  Alcotest.(check bool)
    (Printf.sprintf "poisson near target (%.0f/s)" rate)
    true
    (rate > 120. && rate < 280.)

let test_workload_mixed_reads () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let sim = World.sim w in
  let mix =
    { Workload.default_mix with read_fraction = 0.5; optimized_reads = true }
  in
  let wl = Workload.closed_loop ~sim ~mix ~clients:4 ~replicas:(World.replicas w) () in
  Workload.start_measuring wl;
  World.run w ~ms:2000.;
  Alcotest.(check bool) "mixed workload progresses" true
    (Workload.completed wl > 100)

let test_white_line_advances () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  for i = 1 to 5 do
    World.submit_update w ~node:0 ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:1000.;
  (* After an exchange round everyone's green line knowledge spreads;
     the white line (actions known green everywhere) follows on the next
     view change.  Force one by isolating and healing a node. *)
  Topology.partition (World.topology w) [ [ 0; 1 ]; [ 2 ] ];
  World.run w ~ms:1500.;
  Topology.merge_all (World.topology w);
  World.run w ~ms:2500.;
  let e = Replica.engine (World.replica w 0) in
  Alcotest.(check bool) "white line reached the actions" true
    (Engine.white_line e >= 5)

(* The overload plateau that admission control protects.  Five replicas
   on the CPU-costed 100 Mbit profile take open-loop Poisson arrivals
   with a 1 s deadline: 4,000/s is what the cluster carries unprotected,
   and at twice that, admission {8, 64} keeps goodput on its plateau
   while the unprotected cluster collapses behind an unbounded CPU
   receive queue.  One fresh cluster per point, 0.5 s of load before a
   2 s window; the seed of each point is fixed by its rate. *)
let overload_point ?admission ~seed rate =
  let w =
    World.make ~net_config:Network.lan_100mbit ~params:Repro_gcs.Params.default
      ~attach_cpu:true ?admission ~seed ~n:5 ()
  in
  let wl =
    Workload.open_loop ~deadline:(Repro_sim.Time.of_ms 1_000.) ~busy_retries:3
      ~sim:(World.sim w) ~mix:Workload.default_mix ~rate_per_sec:rate
      ~replicas:(World.replicas w) ()
  in
  World.run w ~ms:500.;
  Workload.start_measuring wl;
  World.run w ~ms:2000.;
  Workload.stop wl;
  let cpu_queue =
    List.fold_left
      (fun acc r ->
        match Replica.cpu_stats r with Some (q, _) -> max acc q | None -> acc)
      0 (World.replicas w)
  in
  (Workload.goodput wl ~over:(Repro_sim.Time.of_sec 2.), cpu_queue)

let test_admission_plateau () =
  let admission = { Replica.adm_max_inflight = 8; adm_max_red = 64 } in
  let carried, _ = overload_point ~seed:9 4000. in
  Alcotest.(check bool)
    (Printf.sprintf "4000/s carried without admission (%.1f/s)" carried)
    true
    (carried >= 0.9 *. 4000.);
  let admitted =
    List.map
      (fun (seed, rate) -> overload_point ~admission ~seed rate)
      [ (19, 4000.); (24, 6000.); (29, 8000.) ]
  in
  let peak = List.fold_left (fun acc (g, _) -> Float.max acc g) 0. admitted in
  let adm_2x, adm_queue = List.nth admitted 2 in
  let bare_2x, bare_queue = overload_point ~seed:29 8000. in
  Alcotest.(check bool)
    (Printf.sprintf "8000/s with admission: %.1f/s >= 80%% of peak %.1f/s"
       adm_2x peak)
    true
    (adm_2x >= 0.8 *. peak);
  Alcotest.(check bool)
    (Printf.sprintf "8000/s with admission: cpu queue %d <= 1000" adm_queue)
    true (adm_queue <= 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "8000/s without admission collapses: %.1f/s <= 50%% of %.1f/s"
       bare_2x adm_2x)
    true
    (bare_2x <= 0.5 *. adm_2x);
  Alcotest.(check bool)
    (Printf.sprintf "8000/s without admission: cpu queue %d >= 1000" bare_queue)
    true (bare_queue >= 1_000)

let () =
  Alcotest.run "harness"
    [
      ( "world",
        [
          Alcotest.test_case "basics" `Quick test_world_basics;
          Alcotest.test_case "heal and settle" `Quick test_world_heal_and_settle;
        ] );
      ( "checker",
        [
          Alcotest.test_case "passes healthy world" `Quick
            test_checker_passes_on_healthy_world;
          Alcotest.test_case "detects divergence" `Quick
            test_checker_detects_divergence;
          Alcotest.test_case "single primary under partition" `Quick
            test_checker_single_primary_property;
          Alcotest.test_case "assert_ok raises" `Quick test_checker_assert_ok_raises;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke all protocols" `Slow test_experiment_smoke;
          Alcotest.test_case "engine beats 2pc" `Slow test_experiment_engine_beats_2pc;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "program order" `Quick test_session_program_order;
          Alcotest.test_case "abort counting" `Quick test_session_counts_aborts;
        ] );
      ( "workload",
        [
          Alcotest.test_case "closed loop" `Quick test_workload_closed_loop_counts;
          Alcotest.test_case "open loop rate" `Quick test_workload_open_loop_rate;
          Alcotest.test_case "mixed reads" `Quick test_workload_mixed_reads;
        ] );
      ( "observability",
        [ Alcotest.test_case "white line advances" `Quick test_white_line_advances ] );
      ( "overload",
        [ Alcotest.test_case "admission plateau" `Slow test_admission_plateau ] );
    ]
