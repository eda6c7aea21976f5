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

(* The world keeps its replica list: the same list on every call, with
   a joiner appended, in node order, once [add_joiner] has added it. *)
let test_world_replicas_include_joiner () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  Alcotest.(check bool) "the same list on every call" true
    (World.replicas w == World.replicas w);
  let joiner = World.add_joiner w ~node:7 ~sponsors:[ 0 ] in
  Alcotest.(check (list int)) "nodes in order, joiner last" [ 0; 1; 2; 7 ]
    (List.map Replica.node (World.replicas w));
  Alcotest.(check bool) "the joiner itself" true
    (List.exists (fun r -> r == joiner) (World.replicas w));
  World.run w ~ms:3000.;
  Alcotest.(check bool) "the joiner is ready" true (Replica.is_ready joiner);
  Alcotest.(check int) "four replicas" 4 (List.length (World.replicas w))

(* A joiner is hooked to the world's monitor when it is created, so the
   monitor holds its first install with no [check_now] in between. *)
let test_world_monitor_hooks_joiner () =
  let w = World.make ~n:3 () in
  let m = World.attach_monitor w in
  World.run w ~ms:1000.;
  let joiner = World.add_joiner w ~node:3 ~sponsors:[ 0 ] in
  World.run w ~ms:3000.;
  Alcotest.(check bool) "the joiner is in the primary" true
    (Replica.in_primary joiner);
  Alcotest.(check bool) "the monitor holds the joiner's install" true
    (List.exists
       (fun (_, node, ev) ->
         node = 3
         && match ev with Engine.Audit_install _ -> true | _ -> false)
       (Repro_check.Monitor.recent m));
  Alcotest.(check int) "no findings" 0 (List.length (World.safety w))

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
    (List.length (World.verdict w ~ledgers:[]))

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
    (List.length (Consistency.check_single_primary (World.replicas w)));
  Alcotest.(check int) "mid-run safety holds under partition" 0
    (List.length (World.safety w))

let test_checker_assert_ok_raises () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  World.submit_update w ~node:0 ~key:"k" 1;
  World.run w ~ms:500.;
  Database.apply (Replica.database (World.replica w 1)) [ Op.Remove "k" ];
  Alcotest.(check bool) "assert_ok raises on corruption" true
    (try
       World.assert_ok w ~ledgers:[];
       false
     with Failure _ -> true)

(* The verdict over a settled, monitored world: one seeded fault per
   oracle, each reported once under its invariant name. *)
let settled_world () =
  let w = World.make ~n:3 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  World.submit_update w ~node:0 ~key:"k" 1;
  World.run w ~ms:500.;
  w

let findings w ~ledgers =
  List.sort compare
    (List.map
       (fun (v : Repro_check.Snapshot.violation) -> (v.v_invariant, v.v_node))
       (World.verdict w ~ledgers))

let findings_t = Alcotest.(list (pair string (option int)))

(* Two replicas green different forged actions at the same position: the
   monitor's sweep and [Consistency.check_all] both see the fork, and
   the verdict reports it once. *)
let test_verdict_fork_once () =
  let w = settled_world () in
  let forge r ~creator =
    let e = Replica.engine r in
    let index = Engine.red_cut e creator + 1 in
    Engine.handle_event e
      (Repro_gcs.Endpoint.Deliver
         {
           Repro_gcs.Endpoint.sender = creator;
           payload =
             Types.Action_batch
               [
                 Action.make ~server:creator ~index
                   (Action.Update [ Op.Set ("evil", Value.Int creator) ]);
               ];
           conf = { Repro_gcs.Conf_id.coord = 0; counter = 999_999 };
           seq = 0;
           in_regular = true;
         })
  in
  forge (World.replica w 1) ~creator:0;
  forge (World.replica w 2) ~creator:1;
  let forks vs =
    List.length
      (List.filter
         (fun (v : Repro_check.Snapshot.violation) ->
           v.v_invariant = "global-total-order")
         vs)
  in
  Alcotest.(check int) "check_all sees the fork" 1
    (forks (Consistency.check_all (World.replicas w)));
  Alcotest.(check int) "the verdict reports it once" 1
    (forks (World.verdict w ~ledgers:[]))

let test_verdict_divergence () =
  let w = settled_world () in
  Database.apply (Replica.database (World.replica w 2))
    [ Op.Set ("rogue", Value.Int 666) ];
  Alcotest.check findings_t "convergence" [ ("convergence", Some 2) ]
    (findings w ~ledgers:[])

let test_verdict_lost_ack () =
  let w = settled_world () in
  let ledgers =
    [ { Consistency.l_client = 1; l_key = "cc1"; l_issued = 5; l_acked = 5 } ]
  in
  Alcotest.check findings_t "exactly-once, per replica"
    (List.map (fun n -> ("exactly-once", Some n)) [ 0; 1; 2 ])
    (findings w ~ledgers)

let test_verdict_lying_footprint () =
  let w = settled_world () in
  ignore (World.attach_procedure_guard w);
  List.iter
    (fun r ->
      Replica.register_procedure r "sneaky"
        ~footprint:{ Procedure.reads = []; writes = [ Procedure.Kparam 0 ] }
        (fun _db _args ->
          { Procedure.updates = [ Op.Set ("shadow", Value.Int 1) ];
            output = Value.Int 1 }))
    (World.replicas w);
  World.submit_procedure w ~node:0 ~proc:"sneaky" [ Value.Text "front" ];
  World.run w ~ms:500.;
  Alcotest.check findings_t "procedure-footprint, per replica"
    (List.map (fun n -> ("procedure-footprint", Some n)) [ 0; 1; 2 ])
    (findings w ~ledgers:[])

let test_verdict_replica_down () =
  let w = settled_world () in
  Replica.crash (World.replica w 2);
  Alcotest.check findings_t "liveness" [ ("liveness", Some 2) ]
    (findings w ~ledgers:[])

let test_experiment_smoke () =
  (* A tiny run of each protocol: sane, non-zero numbers. *)
  let duration = Repro_sim.Time.of_sec 2. in
  List.iter
    (fun protocol ->
      let r = Experiment.run ~servers:3 ~duration ~clients:2 protocol in
      let name = Experiment.protocol_name protocol in
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

(* A closed or Poisson loop of the harness's request mix over the
   world's replicas, on its own split of the sim RNG. *)
let request_loop ?(reads = Experiment.No_reads) w arrivals =
  let sim = World.sim w in
  let rng = Repro_sim.Rng.split (Repro_sim.Engine.rng sim) in
  let issue = Experiment.request ~sim ~rng ~reads (World.replicas w) in
  match arrivals with
  | `Closed clients -> Experiment.closed sim ~clients ~issue
  | `Poisson rate_per_sec -> Experiment.poisson sim ~rng ~rate_per_sec ~issue

let test_workload_closed_loop_counts () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let wl = request_loop w (`Closed 3) in
  World.run w ~ms:500.;
  Experiment.measure wl;
  World.run w ~ms:2000.;
  Alcotest.(check bool) "throughput positive" true
    (Experiment.throughput wl > 50.);
  Experiment.stop wl;
  let at_stop = Experiment.completed wl in
  World.run w ~ms:500.;
  Alcotest.(check bool) "stop halts issuing" true
    (Experiment.completed wl - at_stop <= 3)

let test_workload_open_loop_rate () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let wl = request_loop w (`Poisson 200.) in
  World.run w ~ms:500.;
  Experiment.measure wl;
  World.run w ~ms:4000.;
  let rate = Experiment.throughput wl in
  Alcotest.(check bool)
    (Printf.sprintf "poisson near target (%.0f/s)" rate)
    true
    (rate > 120. && rate < 280.)

let test_workload_mixed_reads () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  let wl = request_loop ~reads:(Experiment.Local_reads 0.5) w (`Closed 4) in
  Experiment.measure wl;
  World.run w ~ms:2000.;
  Alcotest.(check bool) "mixed workload progresses" true
    (Experiment.completed wl > 100)

(* A closed loop under shedding: admission {1; 4} on three replicas
   answers most of twelve clients' submits [Busy].  A request dropped
   after its retries must not stall its client — completions keep
   rising in every 500 ms slice — and only answered requests count. *)
let test_workload_closed_loop_sheds () =
  let admission = { Replica.adm_max_inflight = 1; adm_max_red = 4 } in
  let w = World.make ~admission ~n:3 () in
  World.run w ~ms:1000.;
  let sim = World.sim w in
  let rng = Repro_sim.Rng.split (Repro_sim.Engine.rng sim) in
  let request =
    Experiment.request ~sim ~rng ~reads:Experiment.No_reads (World.replicas w)
  in
  let answered = ref 0 and dropped = ref 0 in
  let wl =
    Experiment.closed sim ~clients:12 ~issue:(fun i ~k ->
        request i ~k:(fun ok ->
            incr (if ok then answered else dropped);
            k ok))
  in
  Experiment.measure wl;
  for slice = 1 to 6 do
    let before = Experiment.completed wl in
    World.run w ~ms:500.;
    Alcotest.(check bool)
      (Printf.sprintf "completions rise in slice %d (%d -> %d)" slice before
         (Experiment.completed wl))
      true
      (Experiment.completed wl > before)
  done;
  let shed =
    List.fold_left (fun acc r -> acc + Replica.shed r) 0 (World.replicas w)
  in
  Alcotest.(check bool) (Printf.sprintf "requests shed (%d)" shed) true
    (shed > 0);
  Alcotest.(check bool) (Printf.sprintf "requests dropped (%d)" !dropped) true
    (!dropped > 0);
  Alcotest.(check int) "completed counts only answered requests" !answered
    (Experiment.completed wl)

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
  let wl = request_loop w (`Poisson rate) in
  World.run w ~ms:500.;
  Experiment.measure wl;
  World.run w ~ms:2000.;
  Experiment.stop wl;
  let cpu_queue =
    List.fold_left
      (fun acc r ->
        match Replica.cpu_stats r with Some (q, _) -> max acc q | None -> acc)
      0 (World.replicas w)
  in
  (Experiment.goodput wl ~within:(Repro_sim.Time.of_ms 1_000.), cpu_queue)

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

(* Live memory is bounded by the checkpoint cadence, not by history:
   every green action carries its creator's green count, so the white
   line advances in steady state and each checkpoint frees the bodies
   below it.  Three replicas run one closed loop each (fixed keys, no
   exactly-once tracking, nothing recorded per request).  The words
   reachable from the world are sampled every 250 virtual ms; their
   peak over [0, 2T] stays within 10% of their peak over [0, T].  With
   the white line stuck between view changes, every green body stayed
   live and the peak grew with the window. *)
let test_live_memory_flat () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  List.iter
    (fun r ->
      let key = Printf.sprintf "loop%d" (Replica.node r) in
      let rec loop i =
        Replica.submit r
          (Action.Update [ Op.Set (key, Value.Int i) ])
          ~on_response:(fun _ -> loop (i + 1))
      in
      loop 1)
    (World.replicas w);
  let peak = ref 0 in
  let run_for ms =
    for _ = 1 to int_of_float (ms /. 250.) do
      World.run w ~ms:250.;
      peak := max !peak (Obj.reachable_words (Obj.repr w))
    done;
    (!peak, Engine.green_count (Replica.engine (World.replica w 0)))
  in
  let peak_t, greens_t = run_for 12_000. in
  let peak_2t, greens_2t = run_for 12_000. in
  Alcotest.(check bool)
    (Printf.sprintf "the loops ran (%d then %d greens)" greens_t greens_2t)
    true
    (greens_t >= 6_000 && greens_2t >= 2 * greens_t - 100);
  Alcotest.(check bool)
    (Printf.sprintf "peak reachable words flat: %d over T, %d over 2T" peak_t
       peak_2t)
    true
    (float_of_int peak_2t <= 1.1 *. float_of_int peak_t)

(* A closed loop through client sessions keeps one deadline pending per
   session, not one per attempt: on a knee-sized world (14 replicas, 14
   sessions, delayed writes) the event queue stays small over a virtual
   second.  With a deadline event left behind by every attempt it
   peaked at 1,554. *)
let test_one_deadline_per_session () =
  let n = 14 in
  let w =
    World.make ~net_config:Network.lan_gigabit ~params:Repro_gcs.Params.default
      ~disk_config:Repro_storage.Disk.default_delayed ~attach_cpu:true ~seed:1
      ~n ()
  in
  let sim = World.sim w in
  World.run w ~ms:2000.;
  let completed = ref 0 in
  List.iter
    (fun id ->
      let c = Client.create ~sim ~id ~replicas:(fun () -> World.replicas w) () in
      let rec loop () =
        Client.exec c (Action.Update []) ~k:(fun _ ->
            incr completed;
            loop ())
      in
      loop ())
    (List.init n (fun i -> i + 1));
  let peak = ref 0 in
  for _ = 1 to 200 do
    World.run w ~ms:5.;
    peak := max !peak (Repro_sim.Engine.pending sim)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "the loops ran (%d completions)" !completed)
    true (!completed > 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "pending events peak at %d (< 400)" !peak)
    true (!peak < 400)

(* A session whose target crashes right after the submit times out
   exactly [request_timeout] after that attempt, even though its timer
   was armed by the previous request's earlier deadline, and then fails
   over once. *)
let test_timeout_exact_after_crash () =
  let w = World.make ~n:3 () in
  let sim = World.sim w in
  World.run w ~ms:1000.;
  let timeout = Client.default_request_timeout in
  let c = Client.create ~sim ~id:1 ~replicas:(fun () -> World.replicas w) () in
  let answered = ref 0 in
  let exec () = Client.exec c (Action.Update []) ~k:(fun _ -> incr answered) in
  exec ();
  World.run w ~ms:50.;
  Alcotest.(check int) "the first request answered" 1 !answered;
  let attempt_at = Repro_sim.Engine.now sim in
  exec ();
  Replica.crash (World.replica w 0);
  let deadline = Repro_sim.Time.add attempt_at ~span:timeout in
  Repro_sim.Engine.run sim
    ~until:(Repro_sim.Time.diff deadline (Repro_sim.Time.of_us 1));
  Alcotest.(check int) "no timeout 1 us before the deadline" 0
    (Client.timeouts c);
  Repro_sim.Engine.run sim ~until:deadline;
  Alcotest.(check int) "timed out at the deadline" 1 (Client.timeouts c);
  World.run w ~ms:500.;
  Alcotest.(check int) "the second request answered" 2 !answered;
  Alcotest.(check (pair int int)) "one timeout, one failover" (1, 1)
    (Client.timeouts c, Client.failovers c)

let () =
  Alcotest.run "harness"
    [
      ( "world",
        [
          Alcotest.test_case "basics" `Quick test_world_basics;
          Alcotest.test_case "heal and settle" `Quick test_world_heal_and_settle;
          Alcotest.test_case "replicas include a joiner" `Quick
            test_world_replicas_include_joiner;
          Alcotest.test_case "monitor hooks a joiner" `Quick
            test_world_monitor_hooks_joiner;
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
          Alcotest.test_case "verdict reports a fork once" `Quick
            test_verdict_fork_once;
          Alcotest.test_case "verdict: divergence" `Quick test_verdict_divergence;
          Alcotest.test_case "verdict: lost ack" `Quick test_verdict_lost_ack;
          Alcotest.test_case "verdict: lying footprint" `Quick
            test_verdict_lying_footprint;
          Alcotest.test_case "verdict: replica down" `Quick
            test_verdict_replica_down;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke all protocols" `Slow test_experiment_smoke;
          Alcotest.test_case "engine beats 2pc" `Slow test_experiment_engine_beats_2pc;
        ] );
      ( "workload",
        [
          Alcotest.test_case "closed loop" `Quick test_workload_closed_loop_counts;
          Alcotest.test_case "open loop rate" `Quick test_workload_open_loop_rate;
          Alcotest.test_case "mixed reads" `Quick test_workload_mixed_reads;
          Alcotest.test_case "closed loop under shedding" `Quick
            test_workload_closed_loop_sheds;
          Alcotest.test_case "one deadline per session" `Quick
            test_one_deadline_per_session;
          Alcotest.test_case "timeout exact after a crash" `Quick
            test_timeout_exact_after_crash;
        ] );
      ( "observability",
        [ Alcotest.test_case "white line advances" `Quick test_white_line_advances ] );
      ( "overload",
        [ Alcotest.test_case "admission plateau" `Slow test_admission_plateau ] );
      ( "memory",
        [
          Alcotest.test_case "live memory flat in time" `Quick
            test_live_memory_flat;
        ] );
    ]
