(* Tests of the network simulator: delivery, latency, partitions, crash
   semantics, CPU accounting. *)

open Repro_sim
open Repro_net

let quiet_lan =
  {
    Network.lan_100mbit with
    jitter = 0.;
    send_cpu_cost = Time.zero;
    recv_cpu_cost = Time.zero;
    recv_cpu_per_kb = Time.zero;
  }

let make ?(config = quiet_lan) n =
  let engine = Engine.create () in
  let topology = Topology.create ~nodes:(List.init n Fun.id) in
  let network = Network.create ~engine ~topology ~config () in
  (engine, topology, network)

let collect network node =
  let received = ref [] in
  Network.register network node ~handler:(fun ~src msg ->
      received := (src, msg) :: !received);
  received

let test_unicast_delivers () =
  let engine, _, network = make 2 in
  let rx = collect network 1 in
  Network.register network 0 ~handler:(fun ~src:_ _ -> ());
  Network.unicast network ~src:0 ~dst:1 ~size:100 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !rx

let test_latency_includes_serialisation () =
  let engine, _, network = make 2 in
  let at = ref Time.zero in
  Network.register network 1 ~handler:(fun ~src:_ _ -> at := Engine.now engine);
  (* 12500 bytes at 100 Mbit/s = 1 ms serialisation + 100 us propagation. *)
  Network.unicast network ~src:0 ~dst:1 ~size:12_500 "big";
  Engine.run engine;
  Alcotest.(check int) "latency" 1_100 (Time.to_us !at)

let test_multicast_fanout () =
  let engine, _, network = make 4 in
  let rxs = List.map (collect network) [ 1; 2; 3 ] in
  Network.multicast network ~src:0 ~dsts:[ 1; 2; 3 ] ~size:10 "m";
  Engine.run engine;
  List.iter
    (fun rx -> Alcotest.(check int) "one copy" 1 (List.length !rx))
    rxs

let test_partition_blocks () =
  let engine, topology, network = make 3 in
  let rx2 = collect network 2 in
  Topology.partition topology [ [ 0; 1 ]; [ 2 ] ];
  Network.unicast network ~src:0 ~dst:2 ~size:10 "x";
  Engine.run engine;
  Alcotest.(check int) "blocked" 0 (List.length !rx2);
  Alcotest.(check int) "counted dropped" 1 (Network.messages_dropped network)

let test_in_flight_cut_drops () =
  let engine, topology, network = make 2 in
  let rx = collect network 1 in
  Network.unicast network ~src:0 ~dst:1 ~size:10 "x";
  (* Cut the link before the message lands. *)
  ignore
    (Engine.schedule engine ~delay:(Time.of_us 10) (fun () ->
         Topology.partition topology [ [ 0 ]; [ 1 ] ]));
  Engine.run engine;
  Alcotest.(check int) "in-flight message lost" 0 (List.length !rx)

let test_crashed_node_silent () =
  let engine, _, network = make 2 in
  let rx = collect network 1 in
  Network.set_up network 1 false;
  Network.unicast network ~src:0 ~dst:1 ~size:10 "x";
  Engine.run engine;
  Alcotest.(check int) "down node receives nothing" 0 (List.length !rx);
  Network.set_up network 1 true;
  Network.unicast network ~src:0 ~dst:1 ~size:10 "y";
  Engine.run engine;
  Alcotest.(check int) "up again receives" 1 (List.length !rx)

let test_broadcast_component_scope () =
  let engine, topology, network = make 4 in
  let rx1 = collect network 1
  and rx2 = collect network 2
  and rx3 = collect network 3 in
  Network.register network 0 ~handler:(fun ~src:_ _ -> ());
  Topology.partition topology [ [ 0; 1; 2 ]; [ 3 ] ];
  Network.broadcast_component network ~src:0 ~size:10 "b";
  Engine.run engine;
  Alcotest.(check int) "member 1 got it" 1 (List.length !rx1);
  Alcotest.(check int) "member 2 got it" 1 (List.length !rx2);
  Alcotest.(check int) "detached 3 did not" 0 (List.length !rx3)

let test_loss_probability () =
  let config = { quiet_lan with loss_probability = 0.5 } in
  let engine, _, network = make ~config 2 in
  let rx = collect network 1 in
  for _ = 1 to 1000 do
    Network.unicast network ~src:0 ~dst:1 ~size:10 "l"
  done;
  Engine.run engine;
  let n = List.length !rx in
  Alcotest.(check bool)
    (Printf.sprintf "roughly half delivered (%d)" n)
    true
    (n > 350 && n < 650)

let test_cpu_serialises_receives () =
  let config =
    { quiet_lan with recv_cpu_cost = Time.of_us 100; send_cpu_cost = Time.zero; recv_cpu_per_kb = Time.zero }
  in
  let engine, _, network = make ~config 2 in
  let cpu = Resource.create engine in
  Network.attach_cpu network 1 cpu;
  let times = ref [] in
  Network.register network 1 ~handler:(fun ~src:_ _ ->
      times := Time.to_us (Engine.now engine) :: !times);
  Network.unicast network ~src:0 ~dst:1 ~size:0 "a";
  Network.unicast network ~src:0 ~dst:1 ~size:0 "b";
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check bool) "second waits for cpu" true (t2 - t1 >= 100)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

(* A crash resets the node's CPU: the messages waiting for it are
   dropped, and a later message is delivered, not mistaken for one of
   the dropped ones. *)
let test_cpu_reset_drops_waiting () =
  let config = { quiet_lan with recv_cpu_cost = Time.of_us 100; send_cpu_cost = Time.of_us 5 } in
  let engine, _, network = make ~config 2 in
  let cpus = List.map (fun n -> (n, Resource.create engine)) [ 0; 1 ] in
  List.iter (fun (n, cpu) -> Network.attach_cpu network n cpu) cpus;
  let rx = collect network 1 in
  List.iter (fun m -> Network.unicast network ~src:0 ~dst:1 ~size:0 m) [ "a"; "b"; "c" ];
  ignore
    (Engine.schedule engine ~delay:(Time.of_us 150) (fun () ->
         Resource.reset (List.assoc 1 cpus);
         (* and a send still waiting for the sender's CPU *)
         Network.unicast network ~src:0 ~dst:1 ~size:0 "lost";
         Resource.reset (List.assoc 0 cpus);
         Network.unicast network ~src:0 ~dst:1 ~size:0 "d"));
  Engine.run engine;
  Alcotest.(check (list (pair int string)))
    "only what the CPU finished before the reset, and what came after"
    [ (0, "d") ] !rx

(* Delivery is allocation-free: once every channel and CPU queue has
   grown to its high-water mark, a multicast to 13 nodes, its 13
   arrivals and 13 receive jobs allocate nothing. *)
let test_delivery_allocates_nothing () =
  let config = { Network.lan_gigabit with loss_probability = 0.01 } in
  let engine, _, network = make ~config 14 in
  let delivered = ref 0 in
  List.iter
    (fun n ->
      Network.attach_cpu network n (Resource.create engine);
      Network.register network n ~handler:(fun ~src:_ _ -> incr delivered))
    (List.init 14 Fun.id);
  let dsts = List.init 13 (fun i -> i + 1) in
  let round () =
    for _ = 1 to 20 do
      Network.multicast network ~src:0 ~dsts ~size:200 "m"
    done;
    Engine.run engine
  in
  round ();
  let before = !delivered and words = Gc.minor_words () in
  round ();
  let allocated = Gc.minor_words () -. words in
  Alcotest.(check bool) "messages delivered" true (!delivered - before > 200);
  Alcotest.(check (float 0.)) "words allocated" 0. allocated

let test_topology_components () =
  let topology = Topology.create ~nodes:[ 0; 1; 2; 3; 4 ] in
  Alcotest.(check int) "one component" 1 (List.length (Topology.components topology));
  Topology.partition topology [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ];
  Alcotest.(check int) "three components" 3 (List.length (Topology.components topology));
  Alcotest.(check bool) "0-1 connected" true (Topology.connected topology 0 1);
  Alcotest.(check bool) "1-2 cut" false (Topology.connected topology 1 2);
  Topology.merge topology [ 0; 2 ];
  Alcotest.(check bool) "0-2 merged" true (Topology.connected topology 0 2);
  Alcotest.(check bool) "4 still alone" false (Topology.connected topology 0 4);
  Topology.merge_all topology;
  Alcotest.(check int) "healed" 1 (List.length (Topology.components topology))

let test_topology_add_isolate () =
  let topology = Topology.create ~nodes:[ 0; 1 ] in
  Topology.add_node topology 2;
  Alcotest.(check bool) "new node connected" true (Topology.connected topology 0 2);
  Topology.isolate topology 2;
  Alcotest.(check bool) "isolated" false (Topology.connected topology 0 2);
  Alcotest.(check bool) "self-connected" true (Topology.connected topology 2 2)

let test_topology_epoch () =
  let topology = Topology.create ~nodes:[ 0; 1 ] in
  let e0 = Topology.epoch topology in
  Topology.partition topology [ [ 0 ]; [ 1 ] ];
  Alcotest.(check bool) "epoch bumped" true (Topology.epoch topology > e0)

let prop_channel_fifo =
  QCheck.Test.make ~name:"per-channel delivery preserves send order" ~count:50
    QCheck.(list_of_size Gen.(int_range 2 30) (int_range 0 20_000))
    (fun sizes ->
      (* Heavy jitter would reorder without the FIFO horizon. *)
      let config = { Network.lan_100mbit with jitter = 2.0 } in
      let engine = Engine.create ~seed:7 () in
      let topology = Topology.create ~nodes:[ 0; 1 ] in
      let network = Network.create ~engine ~topology ~config () in
      let received = ref [] in
      Network.register network 1 ~handler:(fun ~src:_ msg ->
          received := msg :: !received);
      List.iteri
        (fun i size -> Network.unicast network ~src:0 ~dst:1 ~size i)
        sizes;
      Engine.run engine;
      List.rev !received = List.init (List.length sizes) Fun.id)

let prop_partition_is_equivalence =
  QCheck.Test.make ~name:"connectivity is symmetric and transitive" ~count:100
    QCheck.(pair (int_bound 4) (int_bound 4))
    (fun (a, b) ->
      let topology = Topology.create ~nodes:[ 0; 1; 2; 3; 4 ] in
      Topology.partition topology [ [ 0; 1; 2 ]; [ 3; 4 ] ];
      Topology.connected topology a b = Topology.connected topology b a)

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "unicast" `Quick test_unicast_delivers;
          Alcotest.test_case "latency model" `Quick test_latency_includes_serialisation;
          Alcotest.test_case "multicast fanout" `Quick test_multicast_fanout;
          Alcotest.test_case "loss probability" `Quick test_loss_probability;
          Alcotest.test_case "allocates nothing" `Quick test_delivery_allocates_nothing;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "partition blocks" `Quick test_partition_blocks;
          Alcotest.test_case "in-flight cut drops" `Quick test_in_flight_cut_drops;
          Alcotest.test_case "broadcast component scope" `Quick
            test_broadcast_component_scope;
        ] );
      ( "crash",
        [ Alcotest.test_case "crashed node silent" `Quick test_crashed_node_silent ] );
      ( "cpu",
        [
          Alcotest.test_case "cpu serialises receives" `Quick test_cpu_serialises_receives;
          Alcotest.test_case "reset drops waiting messages" `Quick test_cpu_reset_drops_waiting;
        ] );
      ( "topology",
        [
          Alcotest.test_case "components" `Quick test_topology_components;
          Alcotest.test_case "add and isolate" `Quick test_topology_add_isolate;
          Alcotest.test_case "epoch" `Quick test_topology_epoch;
          QCheck_alcotest.to_alcotest prop_partition_is_equivalence;
        ] );
      ( "fifo",
        [ QCheck_alcotest.to_alcotest prop_channel_fifo ] );
    ]
