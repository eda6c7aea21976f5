(* Tests of the EVS group-communication stack: view installation, total
   order, safe delivery, partitions, merges, crash and recovery. *)

open Repro_sim
open Repro_net
open Repro_gcs

type payload = string

type node_log = {
  mutable deliveries : (Node_id.t * payload * int * bool) list; (* newest first *)
  mutable reg_views : Endpoint.view list; (* newest first *)
  mutable trans_views : Endpoint.view list;
}

type cluster = {
  engine : Engine.t;
  topology : Topology.t;
  network : payload Endpoint.wire Network.t;
  endpoints : (Node_id.t, payload Endpoint.t) Hashtbl.t;
  logs : (Node_id.t, node_log) Hashtbl.t;
}

let no_cpu_lan =
  {
    Network.lan_100mbit with
    send_cpu_cost = Time.zero;
    recv_cpu_cost = Time.zero;
    recv_cpu_per_kb = Time.zero;
  }

let make_cluster ?(config = no_cpu_lan) ?(params = Params.fast) ?(seed = 7) n =
  let engine = Engine.create ~seed () in
  let nodes = List.init n (fun i -> i) in
  let topology = Topology.create ~nodes in
  let network = Network.create ~engine ~topology ~config () in
  let endpoints = Hashtbl.create n in
  let logs = Hashtbl.create n in
  List.iter
    (fun node ->
      let log = { deliveries = []; reg_views = []; trans_views = [] } in
      Hashtbl.replace logs node log;
      let on_event = function
        | Endpoint.Deliver d ->
          log.deliveries <-
            (d.Endpoint.sender, d.payload, d.seq, d.in_regular) :: log.deliveries
        | Endpoint.Reg_conf v -> log.reg_views <- v :: log.reg_views
        | Endpoint.Trans_conf v -> log.trans_views <- v :: log.trans_views
      in
      let ep = Endpoint.create ~network ~params ~node ~on_event () in
      Hashtbl.replace endpoints node ep)
    nodes;
  { engine; topology; network; endpoints; logs }

let ep c node = Hashtbl.find c.endpoints node
let log c node = Hashtbl.find c.logs node
let join_all c = Hashtbl.iter (fun _ e -> Endpoint.join e) c.endpoints
let run c ~ms = Engine.run ~until:(Time.add (Engine.now c.engine) ~span:(Time.of_ms ms)) c.engine

let view_exn c node =
  match Endpoint.current_view (ep c node) with
  | Some v -> v
  | None -> Alcotest.failf "node %d has no installed view" node

let delivered_payloads c node =
  List.rev_map (fun (_, p, _, _) -> p) (log c node).deliveries

let check_same_view c nodes =
  match nodes with
  | [] -> ()
  | first :: rest ->
    let v = view_exn c first in
    List.iter
      (fun n ->
        let v' = view_exn c n in
        Alcotest.(check bool)
          (Printf.sprintf "node %d same view as node %d" n first)
          true
          (Conf_id.equal v.Endpoint.id v'.Endpoint.id
          && Node_id.Set.equal v.members v'.members))
      rest;
    ()

(* ------------------------------------------------------------------ *)

let test_initial_install () =
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  check_same_view c [ 0; 1; 2 ];
  let v = view_exn c 0 in
  Alcotest.(check int) "3 members" 3 (Node_id.Set.cardinal v.members)

let test_singleton_install () =
  let c = make_cluster 1 in
  join_all c;
  run c ~ms:300.;
  let v = view_exn c 0 in
  Alcotest.(check int) "solo view" 1 (Node_id.Set.cardinal v.members)

let test_total_order () =
  let c = make_cluster 5 in
  join_all c;
  run c ~ms:500.;
  (* Interleave sends from all nodes. *)
  for i = 0 to 19 do
    let sender = i mod 5 in
    Endpoint.send (ep c sender) ~service:Safe ~size:200
      (Printf.sprintf "m%d-from%d" i sender)
  done;
  run c ~ms:500.;
  let reference = delivered_payloads c 0 in
  Alcotest.(check int) "all delivered" 20 (List.length reference);
  for n = 1 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "node %d same order" n)
      reference (delivered_payloads c n)
  done;
  (* All delivered in the regular configuration (safe). *)
  List.iter
    (fun (_, _, _, in_regular) ->
      Alcotest.(check bool) "in regular" true in_regular)
    (log c 0).deliveries

let test_agreed_vs_safe_order () =
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  Endpoint.send (ep c 0) ~service:Agreed ~size:50 "a1";
  Endpoint.send (ep c 1) ~service:Safe ~size:50 "s1";
  Endpoint.send (ep c 2) ~service:Agreed ~size:50 "a2";
  run c ~ms:500.;
  let reference = delivered_payloads c 0 in
  Alcotest.(check int) "3 delivered" 3 (List.length reference);
  List.iter
    (fun n ->
      Alcotest.(check (list string)) "same order" reference (delivered_payloads c n))
    [ 1; 2 ]

let test_partition_two_views () =
  let c = make_cluster 5 in
  join_all c;
  run c ~ms:500.;
  Topology.partition c.topology [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run c ~ms:800.;
  check_same_view c [ 0; 1; 2 ];
  check_same_view c [ 3; 4 ];
  let v012 = view_exn c 0 and v34 = view_exn c 3 in
  Alcotest.(check int) "majority side 3" 3 (Node_id.Set.cardinal v012.members);
  Alcotest.(check int) "minority side 2" 2 (Node_id.Set.cardinal v34.members);
  (* Both sides keep working independently. *)
  Endpoint.send (ep c 0) ~service:Safe ~size:100 "left";
  Endpoint.send (ep c 4) ~service:Safe ~size:100 "right";
  run c ~ms:500.;
  Alcotest.(check bool)
    "left delivered on left" true
    (List.mem "left" (delivered_payloads c 1));
  Alcotest.(check bool)
    "left not delivered on right" false
    (List.mem "left" (delivered_payloads c 3));
  Alcotest.(check bool)
    "right delivered on right" true
    (List.mem "right" (delivered_payloads c 3))

let test_merge_single_view () =
  let c = make_cluster 5 in
  join_all c;
  run c ~ms:500.;
  Topology.partition c.topology [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  run c ~ms:800.;
  Topology.merge_all c.topology;
  run c ~ms:1000.;
  check_same_view c [ 0; 1; 2; 3; 4 ];
  let v = view_exn c 0 in
  Alcotest.(check int) "merged 5" 5 (Node_id.Set.cardinal v.members)

let test_crash_and_recover () =
  let c = make_cluster 4 in
  join_all c;
  run c ~ms:500.;
  Endpoint.crash (ep c 3);
  run c ~ms:800.;
  check_same_view c [ 0; 1; 2 ];
  let v = view_exn c 0 in
  Alcotest.(check int) "view without crashed" 3 (Node_id.Set.cardinal v.members);
  Endpoint.recover (ep c 3);
  run c ~ms:1000.;
  check_same_view c [ 0; 1; 2; 3 ];
  let v = view_exn c 0 in
  Alcotest.(check int) "recovered view" 4 (Node_id.Set.cardinal v.members)

(* Virtual synchrony: members continuing together into the new view must
   have delivered the same set of messages in the old one. *)
let test_virtual_synchrony_on_partition () =
  let c = make_cluster 4 in
  join_all c;
  run c ~ms:500.;
  (* Fire a burst and cut the network while messages are in flight. *)
  for i = 0 to 30 do
    Endpoint.send (ep c (i mod 4)) ~service:Safe ~size:200 (Printf.sprintf "b%d" i)
  done;
  Engine.run
    ~until:(Time.add (Engine.now c.engine) ~span:(Time.of_ms 1.))
    c.engine;
  Topology.partition c.topology [ [ 0; 1 ]; [ 2; 3 ] ];
  run c ~ms:1500.;
  let d0 = delivered_payloads c 0 and d1 = delivered_payloads c 1 in
  let d2 = delivered_payloads c 2 and d3 = delivered_payloads c 3 in
  Alcotest.(check (list string)) "0 and 1 agree" d0 d1;
  Alcotest.(check (list string)) "2 and 3 agree" d2 d3;
  (* Total order: the two sides' sequences must be prefix-compatible. *)
  let rec common_prefix a b =
    match (a, b) with
    | x :: a', y :: b' when String.equal x y -> common_prefix a' b'
    | _ -> (a, b)
  in
  let ra, rb = common_prefix d0 d2 in
  Alcotest.(check bool)
    "orders are prefix-compatible" true
    (ra = [] || rb = [])

let test_safe_delivery_requires_all_acks () =
  (* With one member isolated before joining acks, safe messages must not
     be regular-delivered by the rest until the view changes. *)
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  (* Cut node 2 off, then send: the message cannot become safe in the old
     3-member view; it must be delivered only after a view change. *)
  Topology.partition c.topology [ [ 0; 1 ]; [ 2 ] ];
  Endpoint.send (ep c 0) ~service:Safe ~size:100 "cut";
  run c ~ms:1200.;
  check_same_view c [ 0; 1 ];
  (match (log c 0).deliveries with
  | [ (_, "cut", _, in_regular) ] ->
    Alcotest.(check bool) "not regular-delivered in old view" false in_regular
  | l ->
    Alcotest.failf "expected exactly one delivery of \"cut\", got %d"
      (List.length l));
  Alcotest.(check bool)
    "node 2 never delivers" false
    (List.mem "cut" (delivered_payloads c 2))

let test_queued_sends_flushed_on_install () =
  let c = make_cluster 2 in
  (* Send before any view exists: must be queued, then delivered. *)
  Endpoint.send (ep c 0) ~service:Safe ~size:80 "early";
  join_all c;
  run c ~ms:500.;
  Alcotest.(check bool)
    "queued send delivered" true
    (List.mem "early" (delivered_payloads c 1))

let test_installed_count_grows () =
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  let before = Endpoint.installed_count (ep c 0) in
  Topology.partition c.topology [ [ 0 ]; [ 1; 2 ] ];
  run c ~ms:800.;
  Topology.merge_all c.topology;
  run c ~ms:1000.;
  Alcotest.(check bool)
    "installations happened" true
    (Endpoint.installed_count (ep c 0) > before)

let test_many_nodes_install () =
  let c = make_cluster 14 in
  join_all c;
  run c ~ms:1500.;
  check_same_view c (List.init 14 (fun i -> i));
  let v = view_exn c 0 in
  Alcotest.(check int) "14 members" 14 (Node_id.Set.cardinal v.members)

let test_lossy_network_total_order () =
  (* 5% message loss: NACK/repair recovery must still deliver everything,
     gap-free and in one order, to every member.  Default (not fast)
     params so the repair timers run at their real cadence. *)
  let config = { no_cpu_lan with loss_probability = 0.05 } in
  let c = make_cluster ~config ~params:Params.default 4 in
  join_all c;
  run c ~ms:3000.;
  check_same_view c [ 0; 1; 2; 3 ];
  for i = 0 to 99 do
    Endpoint.send (ep c (i mod 4)) ~service:Safe ~size:200 (string_of_int i)
  done;
  run c ~ms:8000.;
  let d0 = delivered_payloads c 0 in
  Alcotest.(check int) "all 100 delivered despite loss" 100 (List.length d0);
  for n = 1 to 3 do
    Alcotest.(check (list string)) "same order" d0 (delivered_payloads c n)
  done

(* EVS order compatibility: across ANY pair of nodes, two messages
   delivered at both must appear in the same relative order — checked
   under randomized partition schedules. *)
let prop_order_compatible =
  QCheck.Test.make ~name:"delivery orders are pairwise compatible" ~count:15
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 3) (int_bound 2)))
    (fun (seed, cuts) ->
      let c = make_cluster ~seed:(seed + 100) 4 in
      join_all c;
      run c ~ms:500.;
      let m = ref 0 in
      List.iter
        (fun cut ->
          for _ = 1 to 10 do
            incr m;
            Endpoint.send
              (ep c (!m mod 4))
              ~service:Safe ~size:100
              (Printf.sprintf "m%d" !m)
          done;
          (match cut with
          | 0 -> Topology.partition c.topology [ [ 0; 1 ]; [ 2; 3 ] ]
          | 1 -> Topology.partition c.topology [ [ 0; 1; 2 ]; [ 3 ] ]
          | _ -> Topology.merge_all c.topology);
          run c ~ms:600.)
        cuts;
      Topology.merge_all c.topology;
      run c ~ms:1500.;
      let orders = List.map (delivered_payloads c) [ 0; 1; 2; 3 ] in
      let pos_of order =
        let tbl = Hashtbl.create 64 in
        List.iteri (fun i p -> Hashtbl.replace tbl p i) order;
        tbl
      in
      let tables = List.map pos_of orders in
      let compatible ta tb =
        Hashtbl.fold
          (fun pa ia acc ->
            acc
            && Hashtbl.fold
                 (fun pb ib acc ->
                   acc
                   &&
                   match (Hashtbl.find_opt tb pa, Hashtbl.find_opt tb pb) with
                   | Some ja, Some jb -> compare ia ib = compare ja jb
                   | _ -> true)
                 ta true)
          ta true
      in
      List.for_all
        (fun ta -> List.for_all (fun tb -> compatible ta tb) tables)
        tables)

(* The paper's §2.1 lists FIFO/causal/total services; agreed delivery
   from a sequencer subsumes both: per-sender FIFO holds (channels and
   ordering preserve it) and causality holds because a message sent in
   reaction to a delivery is necessarily sequenced after it. *)
let test_causality_preserved () =
  let c = make_cluster 4 in
  (* Node 1 answers every delivered "ping-k" with "pong-k". *)
  let log1 = log c 1 in
  let answered = Hashtbl.create 8 in
  join_all c;
  run c ~ms:500.;
  let rec react () =
    List.iter
      (fun (_, p, _, _) ->
        if String.length p >= 5 && String.sub p 0 5 = "ping-" then
          if not (Hashtbl.mem answered p) then begin
            Hashtbl.add answered p ();
            let k = String.sub p 5 (String.length p - 5) in
            Endpoint.send (ep c 1) ~service:Safe ~size:60 ("pong-" ^ k)
          end)
      log1.deliveries;
    ignore
      (Engine.schedule c.engine ~delay:(Time.of_us 200) (fun () -> react ()))
  in
  react ();
  for k = 0 to 9 do
    Endpoint.send (ep c 0) ~service:Safe ~size:60 (Printf.sprintf "ping-%d" k);
    run c ~ms:30.
  done;
  run c ~ms:500.;
  (* At every node, each pong appears after its ping. *)
  List.iter
    (fun n ->
      let order = delivered_payloads c n in
      let index p =
        let rec go i = function
          | [] -> -1
          | x :: tl -> if String.equal x p then i else go (i + 1) tl
        in
        go 0 order
      in
      for k = 0 to 9 do
        let ping = index (Printf.sprintf "ping-%d" k)
        and pong = index (Printf.sprintf "pong-%d" k) in
        Alcotest.(check bool)
          (Printf.sprintf "node %d: ping-%d before pong-%d" n k k)
          true
          (ping >= 0 && pong > ping)
      done)
    [ 0; 1; 2; 3 ]

let test_store_eviction_bounds_memory () =
  (* Messages below the safe line are evicted in chunks: after a long
     safe-traffic run the store must stay far below the message count. *)
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  for batch = 0 to 19 do
    for i = 0 to 499 do
      Endpoint.send (ep c ((i + batch) mod 3)) ~service:Safe ~size:50
        (Printf.sprintf "m%d-%d" batch i)
    done;
    run c ~ms:400.
  done;
  Alcotest.(check int) "all delivered" 10_000
    (List.length (delivered_payloads c 0));
  (match Endpoint.store_stats (ep c 0) with
  | Some (retained, evicted) ->
    Alcotest.(check bool)
      (Printf.sprintf "store bounded (%d retained, %d evicted)" retained evicted)
      true
      (retained < 6_000 && evicted > 4_000)
  | None -> Alcotest.fail "no installed view");
  (* Membership still works after eviction: retransmission bases itself
     on the evicted line (everything below is held by every member). *)
  Topology.partition c.topology [ [ 0; 1 ]; [ 2 ] ];
  run c ~ms:800.;
  Topology.merge_all c.topology;
  run c ~ms:1200.;
  check_same_view c [ 0; 1; 2 ]

let test_conf_ids_unique_across_installs () =
  let c = make_cluster 3 in
  join_all c;
  run c ~ms:500.;
  let seen = ref [] in
  let note () =
    match Endpoint.current_view (ep c 0) with
    | Some v -> if not (List.exists (Conf_id.equal v.Endpoint.id) !seen) then
        seen := v.Endpoint.id :: !seen
    | None -> ()
  in
  note ();
  for _ = 1 to 3 do
    Topology.partition c.topology [ [ 0 ]; [ 1; 2 ] ];
    run c ~ms:600.;
    note ();
    Topology.merge_all c.topology;
    run c ~ms:800.;
    note ()
  done;
  (* Every noted id was distinct (the list only grew on fresh ids), and we
     went through at least 6 installs. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct configuration ids" (List.length !seen))
    true
    (List.length !seen >= 6)

let test_throughput_smoke () =
  (* The stack must sustain a multi-hundred-message burst and deliver all
     of it in order everywhere. *)
  let c = make_cluster 5 in
  join_all c;
  run c ~ms:500.;
  for i = 0 to 499 do
    Endpoint.send (ep c (i mod 5)) ~service:Safe ~size:200 (string_of_int i)
  done;
  run c ~ms:3000.;
  let d0 = delivered_payloads c 0 in
  Alcotest.(check int) "all 500 delivered" 500 (List.length d0);
  for n = 1 to 4 do
    Alcotest.(check (list string)) "same order" d0 (delivered_payloads c n)
  done

(* The sequence window against a Hashtbl model: every operation, keys
   below the window included (a late retransmission of an evicted
   sequence number, a resend of an already ordered message).  [slide]
   drops the ring keys up to its bound, read off the window's base. *)
type window_op =
  | W_replace of int * int
  | W_remove of int
  | W_mem of int
  | W_find of int
  | W_slide of int

let prop_window_matches_hashtbl =
  let key = QCheck.Gen.int_range (-2) 70 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> W_replace (k, v)) key small_nat);
          (3, map (fun k -> W_remove k) key);
          (2, map (fun k -> W_mem k) key);
          (2, map (fun k -> W_find k) key);
          (1, map (fun k -> W_slide k) key);
        ])
  in
  let print = function
    | W_replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | W_remove k -> Printf.sprintf "remove %d" k
    | W_mem k -> Printf.sprintf "mem %d" k
    | W_find k -> Printf.sprintf "find %d" k
    | W_slide k -> Printf.sprintf "slide %d" k
  in
  QCheck.Test.make ~name:"window agrees with a Hashtbl model" ~count:500
    QCheck.(make ~print:Print.(list print) Gen.(list_size (int_range 1 200) op))
    (fun ops ->
      let w = Window.create () and model = Hashtbl.create 16 in
      let find_model k = Hashtbl.find_opt model k in
      let find_window k = match Window.find w k with v -> Some v | exception Not_found -> None in
      let bindings () =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.for_all
        (fun op ->
          let answer_ok =
            match op with
            | W_replace (k, v) ->
              Window.replace w k v;
              Hashtbl.replace model k v;
              true
            | W_remove k ->
              Window.remove w k;
              Hashtbl.remove model k;
              (* A removal leaves the base just below the lowest key
                 above it, so the ring spans only the live range. *)
              let base = Window.base w in
              Window.mem w (base + 1)
              || not (Hashtbl.fold (fun k _ above -> above || k > base) model false)
            | W_mem k -> Window.mem w k = Hashtbl.mem model k
            | W_find k -> find_window k = find_model k
            | W_slide n ->
              let base = Window.base w in
              Window.slide w n;
              Hashtbl.filter_map_inplace
                (fun k v -> if k > base && k <= n then None else Some v)
                model;
              Window.base w = max base n
          in
          answer_ok
          && Window.length w = Hashtbl.length model
          && List.rev (Window.fold (fun k v acc -> (k, v) :: acc) w []) = bindings ())
        ops)

let () =
  Alcotest.run "gcs"
    [
      ( "membership",
        [
          Alcotest.test_case "initial install" `Quick test_initial_install;
          Alcotest.test_case "singleton install" `Quick test_singleton_install;
          Alcotest.test_case "partition produces two views" `Quick
            test_partition_two_views;
          Alcotest.test_case "merge back to one view" `Quick
            test_merge_single_view;
          Alcotest.test_case "crash and recover" `Quick test_crash_and_recover;
          Alcotest.test_case "installed count grows" `Quick
            test_installed_count_grows;
          Alcotest.test_case "conf ids unique" `Quick
            test_conf_ids_unique_across_installs;
          Alcotest.test_case "14 nodes install" `Quick test_many_nodes_install;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "total order across senders" `Quick
            test_total_order;
          Alcotest.test_case "agreed and safe interleave" `Quick
            test_agreed_vs_safe_order;
          Alcotest.test_case "throughput smoke" `Quick test_throughput_smoke;
          Alcotest.test_case "lossy network total order" `Quick
            test_lossy_network_total_order;
          Alcotest.test_case "store eviction bounds memory" `Quick
            test_store_eviction_bounds_memory;
          Alcotest.test_case "causality preserved" `Quick test_causality_preserved;
        ] );
      ( "evs",
        [
          Alcotest.test_case "virtual synchrony on partition" `Quick
            test_virtual_synchrony_on_partition;
          Alcotest.test_case "safe needs all acks" `Quick
            test_safe_delivery_requires_all_acks;
          Alcotest.test_case "queued sends flushed" `Quick
            test_queued_sends_flushed_on_install;
          QCheck_alcotest.to_alcotest prop_order_compatible;
          QCheck_alcotest.to_alcotest prop_window_matches_hashtbl;
        ] );
    ]
