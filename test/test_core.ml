(* End-to-end tests of the replication engine: primary installation,
   green ordering, partitions (primary and non-primary sides), merges
   and convergence, crash/recovery, dynamic join/leave, and the relaxed
   semantics of paper §6. *)

open Repro_sim
open Repro_net
open Repro_db
open Repro_core

let fast_lan =
  {
    Network.lan_100mbit with
    send_cpu_cost = Time.zero;
    recv_cpu_cost = Time.zero;
    recv_cpu_per_kb = Time.zero;
  }

(* A fast disk keeps scenario tests snappy; correctness is unaffected. *)
let fast_disk =
  {
    Repro_storage.Disk.default_forced with
    sync_latency = Time.of_ms 1.;
  }

type world = {
  cluster : Replica.cluster;
  replicas : (Node_id.t, Replica.t) Hashtbl.t;
}

let make_world ?(seed = 21) n =
  let nodes = List.init n Fun.id in
  let cluster =
    Replica.make_cluster ~net_config:fast_lan ~params:Repro_gcs.Params.fast
      ~seed ~nodes ()
  in
  let replicas = Hashtbl.create n in
  List.iter
    (fun node ->
      let r =
        Replica.create ~disk_config:fast_disk ~attach_cpu:false ~cluster ~node
          ~role:(Replica.Static nodes) ()
      in
      Hashtbl.replace replicas node r)
    nodes;
  { cluster; replicas }

let rep w n = Hashtbl.find w.replicas n
let all_replicas w = Hashtbl.fold (fun _ r acc -> r :: acc) w.replicas []

let start_all w = List.iter Replica.start (all_replicas w)

let run_sim w ~ms =
  let sim = Replica.cluster_sim w.cluster in
  Repro_sim.Engine.run
    ~until:(Repro_sim.Time.add (Repro_sim.Engine.now sim) ~span:(Time.of_ms ms))
    sim

let topo w = Replica.cluster_topology w.cluster

let set_kv r key v ~on_response =
  Replica.submit r (Action.Update [ Op.Set (key, Value.Int v) ]) ~on_response

let set_kv' r key v = set_kv r key v ~on_response:(fun _ -> ())

let green_ids r =
  List.map (fun a -> a.Action.id) (Repro_core.Engine.green_actions (Replica.engine r))

let check_green_prefix_consistent name ra rb =
  let ga = green_ids ra and gb = green_ids rb in
  let rec prefix a b =
    match (a, b) with
    | [], _ | _, [] -> true
    | x :: a', y :: b' -> Action.Id.equal x y && prefix a' b'
  in
  Alcotest.(check bool)
    (name ^ ": green prefixes consistent")
    true (prefix ga gb)

let check_db_equal name ra rb =
  Alcotest.(check int)
    (name ^ ": databases converged")
    (Database.digest (Replica.database ra))
    (Database.digest (Replica.database rb))

let count_in_primary w =
  List.length (List.filter Replica.in_primary (all_replicas w))

(* ------------------------------------------------------------------ *)

let test_primary_installs () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d in primary" (Replica.node r))
        true (Replica.in_primary r))
    (all_replicas w)

let test_actions_turn_green_everywhere () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  let responses = ref 0 in
  for i = 1 to 10 do
    set_kv (rep w (i mod 3)) (Printf.sprintf "k%d" i) i ~on_response:(fun _ ->
        incr responses)
  done;
  run_sim w ~ms:500.;
  Alcotest.(check int) "all clients answered" 10 !responses;
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d green count" (Replica.node r))
        10
        (Repro_core.Engine.green_count (Replica.engine r)))
    (all_replicas w);
  check_green_prefix_consistent "steady" (rep w 0) (rep w 1);
  check_db_equal "steady" (rep w 0) (rep w 2)

let test_partition_majority_keeps_primary () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  Alcotest.(check bool) "majority side in primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 2));
  Alcotest.(check bool) "minority side out of primary" true
    ((not (Replica.in_primary (rep w 3))) && not (Replica.in_primary (rep w 4)));
  Alcotest.(check int) "exactly three in primary" 3 (count_in_primary w)

let test_minority_actions_stay_red () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  let minority_answered = ref false in
  set_kv (rep w 3) "m" 1 ~on_response:(fun _ -> minority_answered := true);
  set_kv' (rep w 0) "p" 2;
  run_sim w ~ms:800.;
  Alcotest.(check bool) "minority update unanswered (strict)" false
    !minority_answered;
  Alcotest.(check bool) "red at minority" true
    (List.length (Repro_core.Engine.red_actions (Replica.engine (rep w 3))) >= 1);
  Alcotest.(check bool) "primary committed its action" true
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)) >= 1);
  (* Merge: the red action is ordered and everyone converges. *)
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  Alcotest.(check bool) "minority answered after merge" true !minority_answered;
  check_db_equal "after merge" (rep w 0) (rep w 3);
  check_green_prefix_consistent "after merge" (rep w 2) (rep w 4)

let test_no_primary_without_quorum () =
  let w = make_world 4 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2; 3 ] ];
  run_sim w ~ms:1500.;
  (* 2 of 4 with the tie-breaker (node 0) forms the primary; the other
     half must not. *)
  Alcotest.(check bool) "tie-breaker side wins" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  Alcotest.(check bool) "other side blocked" true
    ((not (Replica.in_primary (rep w 2))) && not (Replica.in_primary (rep w 3)))

let test_cascaded_partitions_single_primary () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1200.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1200.;
  (* {0,1} holds 2 of the last primary {0,1,2}: majority. *)
  Alcotest.(check bool) "cascaded majority holds primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  Alcotest.(check int) "exactly two in primary" 2 (count_in_primary w);
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  Alcotest.(check int) "all five recover primary" 5 (count_in_primary w)

let test_crash_recover_rejoins () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 5 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  Replica.crash (rep w 2);
  run_sim w ~ms:800.;
  Alcotest.(check bool) "survivors keep primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  set_kv' (rep w 0) "after" 9;
  run_sim w ~ms:500.;
  Replica.recover (rep w 2);
  run_sim w ~ms:2000.;
  Alcotest.(check bool) "recovered back in primary" true
    (Replica.in_primary (rep w 2));
  check_db_equal "after recovery" (rep w 0) (rep w 2);
  check_green_prefix_consistent "after recovery" (rep w 1) (rep w 2)

let test_total_crash_blocks_until_full_exchange () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  set_kv' (rep w 0) "x" 1;
  run_sim w ~ms:500.;
  (* Everyone crashes. *)
  List.iter Replica.crash (all_replicas w);
  run_sim w ~ms:200.;
  (* All recover: after mutual exchange, the primary must re-form and the
     durable action must survive. *)
  List.iter Replica.recover (all_replicas w);
  run_sim w ~ms:2500.;
  Alcotest.(check int) "primary re-formed" 3 (count_in_primary w);
  check_db_equal "after total crash" (rep w 0) (rep w 1);
  Alcotest.(check bool) "action survived" true
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)) >= 1)

let test_weak_and_dirty_queries () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  set_kv' (rep w 0) "g" 1;
  run_sim w ~ms:500.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  (* A minority update: red only. *)
  set_kv' (rep w 3) "g" 2;
  run_sim w ~ms:500.;
  (match Replica.weak_query (rep w 3) [ "g" ] with
  | [ ("g", Some (Value.Int 1)) ] -> ()
  | _ -> Alcotest.fail "weak query must serve the green (stale) state");
  match Replica.dirty_query (rep w 3) [ "g" ] with
  | [ ("g", Some (Value.Int 2)) ] -> ()
  | _ -> Alcotest.fail "dirty query must include red actions"

let test_commutative_semantics_respond_early () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  let answered = ref false in
  Replica.submit (rep w 3) ~semantics:Action.Commutative
    (Action.Update [ Op.Add ("stock", 5) ])
    ~on_response:(fun _ -> answered := true);
  run_sim w ~ms:500.;
  Alcotest.(check bool) "commutative answered in minority" true !answered;
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  check_db_equal "stock converged" (rep w 0) (rep w 3)

let test_join_new_replica () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 5 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  (* A brand-new node 7 joins via sponsor 1. *)
  Topology.add_node (topo w) 7;
  let joiner =
    Replica.create ~disk_config:fast_disk ~attach_cpu:false
      ~cluster:w.cluster ~node:7 ~role:(Replica.Joiner [ 1 ]) ()
  in
  Hashtbl.replace w.replicas 7 joiner;
  Replica.start joiner;
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "joiner ready" true (Replica.is_ready joiner);
  Alcotest.(check bool) "joiner in primary" true (Replica.in_primary joiner);
  check_db_equal "joiner caught up" (rep w 0) joiner;
  (* The joiner now participates in ordering new actions. *)
  set_kv' joiner "from-joiner" 42;
  run_sim w ~ms:500.;
  check_db_equal "joiner action replicated" (rep w 2) joiner;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d knows joiner" (Replica.node r))
        true
        (Node_id.Set.mem 7 (Repro_core.Engine.known_servers (Replica.engine r))))
    (all_replicas w)

let test_leave_replica () =
  let w = make_world 4 in
  start_all w;
  run_sim w ~ms:800.;
  Replica.leave (rep w 3);
  run_sim w ~ms:2000.;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d removed leaver" n)
        false
        (Node_id.Set.mem 3 (Repro_core.Engine.known_servers (Replica.engine (rep w n)))))
    [ 0; 1; 2 ];
  Alcotest.(check int) "survivors keep primary" 3 (count_in_primary w)

let test_interactive_conflict_aborts_everywhere () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  Replica.submit (rep w 0) (Action.Update [ Op.Set ("seat", Value.Text "free") ])
    ~on_response:(fun _ -> ());
  run_sim w ~ms:500.;
  (* Two clients读 the seat as free and race to book it. *)
  let book r ~on_response =
    Replica.submit r
      (Action.Interactive
         {
           expected = [ ("seat", Some (Value.Text "free")) ];
           updates = [ Op.Set ("seat", Value.Text "taken") ];
         })
      ~on_response
  in
  let outcomes = ref [] in
  book (rep w 1) ~on_response:(fun r -> outcomes := r :: !outcomes);
  book (rep w 2) ~on_response:(fun r -> outcomes := r :: !outcomes);
  run_sim w ~ms:500.;
  let committed =
    List.length
      (List.filter (function Action.Committed _ -> true | _ -> false) !outcomes)
  and aborted =
    List.length
      (List.filter (function Action.Aborted -> true | _ -> false) !outcomes)
  in
  Alcotest.(check int) "exactly one commits" 1 committed;
  Alcotest.(check int) "exactly one aborts" 1 aborted;
  check_db_equal "seats agree" (rep w 0) (rep w 2)

(* --- local queries, stats -------------------------------------------- *)

let test_local_query_session_consistency () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  (* Submit an update, then immediately a local query through the same
     replica: the query must wait for the update and see its effect —
     without being globally ordered itself. *)
  set_kv' (rep w 0) "session" 7;
  let result = ref None in
  Replica.local_query (rep w 0) [ "session" ] ~on_response:(fun r ->
      result := Some r);
  Alcotest.(check bool) "query waits for the pending update" true (!result = None);
  run_sim w ~ms:500.;
  (match !result with
  | Some [ ("session", Some (Value.Int 7)) ] -> ()
  | _ -> Alcotest.fail "local query must observe the session's own write");
  (* With no pending actions the answer is immediate. *)
  let immediate = ref None in
  Replica.local_query (rep w 1) [ "session" ] ~on_response:(fun r ->
      immediate := Some r);
  Alcotest.(check bool) "immediate when drained" true (!immediate <> None)

let test_engine_stats_track_membership () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  let s0 = Repro_core.Engine.stats (Replica.engine (rep w 0)) in
  let installs_before = s0.Repro_core.Engine.s_installs in
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:1200.;
  Topology.merge_all (topo w);
  run_sim w ~ms:2000.;
  Alcotest.(check bool) "exchanges counted" true
    (s0.Repro_core.Engine.s_exchanges >= 2);
  Alcotest.(check bool) "installs counted" true
    (s0.Repro_core.Engine.s_installs > installs_before)

(* --- checkpoints and garbage collection ----------------------------- *)

let test_checkpoint_compacts_log () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 30 do
    set_kv' (rep w (i mod 3)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:1000.;
  let before = Replica.log_entries (rep w 0) in
  Replica.checkpoint_now (rep w 0);
  run_sim w ~ms:500.;
  let after = Replica.log_entries (rep w 0) in
  Alcotest.(check bool)
    (Printf.sprintf "log compacted (%d -> %d)" before after)
    true (after < before);
  (* Crash and recover from the checkpoint: same state as peers. *)
  Replica.crash (rep w 0);
  run_sim w ~ms:800.;
  Replica.recover (rep w 0);
  run_sim w ~ms:2000.;
  check_db_equal "recovered from checkpoint" (rep w 0) (rep w 1);
  Alcotest.(check int) "green count preserved" 30
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)))

let test_joiner_crash_recovers_inherited_state () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 10 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  Topology.add_node (topo w) 7;
  let joiner =
    Replica.create ~disk_config:fast_disk ~attach_cpu:false
      ~cluster:w.cluster ~node:7 ~role:(Replica.Joiner [ 1 ]) ()
  in
  Hashtbl.replace w.replicas 7 joiner;
  Replica.start joiner;
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "joined" true (Replica.is_ready joiner);
  (* The joiner's database came by snapshot, not by actions: a crash must
     not lose the inherited prefix.  Its only checkpoint is that
     snapshot, a version of the sponsor's store, and the sponsor keeps
     writing after the transfer and while the joiner is down. *)
  let sponsor = rep w 1 in
  let sponsor_writes lo hi =
    for i = lo to hi do
      set_kv' sponsor (Printf.sprintf "k%d" i) i
    done
  in
  sponsor_writes 11 20;
  run_sim w ~ms:500.;
  Replica.crash joiner;
  sponsor_writes 21 30;
  run_sim w ~ms:800.;
  let sponsor_digest = Database.digest (Replica.database sponsor) in
  Replica.recover joiner;
  (* Recovery read the old version; the sponsor's reads are unaffected. *)
  Alcotest.(check int) "sponsor digest unchanged by the recovery" sponsor_digest
    (Database.digest (Replica.database sponsor));
  Alcotest.(check bool) "sponsor reads its latest write" true
    (Database.get (Replica.database sponsor) "k30" = Some (Value.Int 30));
  sponsor_writes 31 35;
  run_sim w ~ms:2500.;
  Alcotest.(check bool) "re-joined" true (Replica.is_ready joiner);
  check_db_equal "inherited state survived the crash" (rep w 0) joiner;
  check_db_equal "sponsor kept its writes" (rep w 0) sponsor;
  Alcotest.(check bool) "all 35 keys present" true
    (Database.size (Replica.database joiner) = 35)

let test_gc_respects_laggards () =
  (* White-action GC must never discard bodies a detached replica still
     needs: the white line is the minimum green count over *known*
     servers, including unreachable ones. *)
  let w = make_world ~seed:29 3 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:1200.;
  for i = 1 to 40 do
    set_kv' (rep w (i mod 2)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:1000.;
  (* Aggressive checkpointing while replica 2 is away. *)
  Replica.checkpoint_now (rep w 0);
  Replica.checkpoint_now (rep w 1);
  run_sim w ~ms:500.;
  Topology.merge_all (topo w);
  run_sim w ~ms:3000.;
  check_db_equal "laggard caught up despite GC" (rep w 0) (rep w 2);
  Alcotest.(check int) "all actions reached the laggard" 40
    (Repro_core.Engine.green_count (Replica.engine (rep w 2)))

let test_periodic_checkpoint_bounds_log () =
  let nodes = [ 0; 1; 2 ] in
  let cluster =
    Replica.make_cluster ~net_config:fast_lan ~params:Repro_gcs.Params.fast
      ~seed:31 ~nodes ()
  in
  let replicas =
    List.map
      (fun node ->
        let r =
          Replica.create ~disk_config:fast_disk ~attach_cpu:false
            ~checkpoint_every:(Some 20) ~cluster ~node
            ~role:(Replica.Static nodes) ()
        in
        Replica.start r;
        (node, r))
      nodes
  in
  let sim = Replica.cluster_sim cluster in
  Repro_sim.Engine.run ~until:(Time.of_ms 800.) sim;
  for i = 1 to 100 do
    Replica.submit
      (List.assoc (i mod 3) replicas)
      (Action.Update [ Op.Set ("x", Value.Int i) ])
      ~on_response:(fun _ -> ())
  done;
  Repro_sim.Engine.run ~until:(Time.of_sec 3.) sim;
  (* 100 actions logged at ~2 entries each; periodic checkpoints keep the
     log near one checkpoint interval. *)
  Alcotest.(check bool) "log stays bounded" true
    (Replica.log_entries (List.assoc 0 replicas) < 120)

(* --- persistence and knowledge properties --------------------------- *)

let make_persist () =
  let sim = Repro_sim.Engine.create () in
  let disk =
    Repro_storage.Disk.create ~engine:sim
      ~config:{ Repro_storage.Disk.default_forced with sync_latency = Time.of_ms 1. }
      ()
  in
  (sim, Persist.create ~engine:sim ~disk ())

let test_persist_torn_batch_fifo_gap_free () =
  (* A delivery burst logged as one multi-record frame must be lost or
     kept as a unit: a crash that tears the in-flight frame may not
     leave a creator's FIFO with a gap (say, index 3 salvaged while
     index 2 died with the frame). *)
  let sim = Repro_sim.Engine.create () in
  let disk =
    Repro_storage.Disk.create ~engine:sim
      ~config:
        {
          Repro_storage.Disk.default_forced with
          sync_latency = Time.of_ms 1.;
          sync_jitter = 0.;
          faults =
            { Repro_storage.Disk.no_faults with torn_tail_on_crash = 1.0 };
        }
      ()
  in
  let persist = Persist.create ~engine:sim ~disk () in
  let a cr i = Action.make ~server:cr ~index:i (Action.Update []) in
  Persist.log_red_batch persist [ a 1 1 ];
  Persist.log_red_batch persist [ a 2 1 ];
  Persist.sync persist ignore;
  Repro_sim.Engine.run sim;
  (* One in-flight burst frame carrying creator 1's next two actions. *)
  Persist.log_red_batch persist [ a 1 2; a 1 3 ];
  Persist.crash persist;
  let r = Persist.recover ~self:0 persist in
  (match r.Persist.r_verdict with
  | Persist.V_torn_tail n ->
    Alcotest.(check int) "the whole frame was truncated" 2 n
  | v ->
    Alcotest.failf "expected a torn tail, got %a" Persist.pp_verdict v);
  Alcotest.(check (list (pair int int)))
    "durable reds survive in arrival order, no partial batch"
    [ (1, 1); (2, 1) ]
    (List.map
       (fun act ->
         (act.Action.id.Action.Id.server, act.Action.id.Action.Id.index))
       r.Persist.r_red);
  List.iter
    (fun (creator, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "creator %d red cut is gap-free" creator)
        expected
        (Option.value ~default:0
           (Node_id.Map.find_opt creator r.Persist.r_red_cut)))
    [ (1, 1); (2, 1) ]

(* One submission path.  Requests buffered during an exchange leave as
   one n-record log frame and one n-action [Action_batch]; a request
   accepted in [Reg_prim] is a batch of one: one frame, and an
   [Action_batch [a]] sized as [a] alone.  A one-node group over the
   abstract EVS model makes every frame and multicast observable. *)
let test_submission_is_one_frame_one_batch () =
  let sim, persist = make_persist () in
  let disk = Persist.disk persist in
  let counters () =
    (Repro_storage.Disk.write_epoch disk, Persist.entries_logged persist)
  in
  let model =
    Repro_gcs.Model.create ~nodes:[ 0 ]
      ~pp_payload:(Format.asprintf "%a" Types.pp_payload)
      ()
  in
  let sent = ref [] and at_reg_prim = ref None in
  let callbacks =
    {
      Engine.on_green = ignore;
      on_red = ignore;
      on_transfer_request = (fun ~joiner:_ -> ());
      on_self_leave = ignore;
      on_resync = ignore;
      send =
        (fun ~service:_ ~size payload ->
          (match payload with
          | Types.Action_batch actions -> sent := (size, actions) :: !sent
          | _ -> ());
          Repro_gcs.Model.send model ~from:0 payload);
    }
  in
  let e =
    Engine.recover ~quorum:Quorum.Dynamic_linear ~recovered:Persist.fresh
      ~sim ~node:0 ~servers:(Node_id.Set.singleton 0) ~persist ~callbacks ()
  in
  Engine.set_audit e (function
    | Engine.Audit_state Types.Reg_prim -> at_reg_prim := Some (counters ())
    | _ -> ());
  (* Deliver every queued event; report the frames and records the event
     that installed the primary logged after the installation itself. *)
  let rec settle acc =
    ignore (Repro_sim.Engine.drain sim);
    match Repro_gcs.Model.deliver model 0 with
    | None -> acc
    | Some ev ->
      let before = !at_reg_prim in
      Engine.handle_event e ev;
      let acc =
        match (before, !at_reg_prim) with
        | None, Some (f, r) ->
          let f', r' = counters () in
          Some (f' - f, r' - r)
        | _ -> acc
      in
      settle acc
  in
  let submit size =
    Engine.submit e ~client:0 ~semantics:Action.Strict ~size ~req_seq:0
      ~req_ack:0 ~kind:(Action.Update []) ~on_created:ignore
  in
  let batches_sent () =
    List.map
      (fun (size, actions) ->
        (size, List.map (fun a -> a.Action.size) actions))
      !sent
  in
  Repro_gcs.Model.reconfigure model ~components:[ Node_id.Set.singleton 0 ];
  (match Repro_gcs.Model.deliver model 0 with
  | Some ev -> Engine.handle_event e ev
  | None -> Alcotest.fail "no first configuration");
  Alcotest.(check bool) "in a state exchange" true (Burst.in_exchange e);
  let logged = counters () in
  List.iter submit [ 100; 200; 300 ];
  Alcotest.(check (pair int int)) "buffered, nothing logged" logged (counters ());
  Alcotest.(check (option (pair int int)))
    "installing logs the buffered burst as one 3-record frame"
    (Some (1, 3)) (settle None);
  Alcotest.(check (list (pair int (list int))))
    "one 3-action batch with its header"
    [ (16 + 108 + 208 + 308, [ 100; 200; 300 ]) ]
    (batches_sent ());
  Alcotest.(check bool) "in the primary" true (Engine.in_primary e);
  sent := [];
  let logged = counters () in
  submit 200;
  let f, r = counters () in
  Alcotest.(check (pair int int)) "a lone submission is one 1-record frame"
    (fst logged + 1, snd logged + 1) (f, r);
  ignore (settle None);
  Alcotest.(check (list (pair int (list int))))
    "a lone submission is a header-free batch of one"
    [ (200, [ 200 ]) ] (batches_sent ());
  let stats = Engine.stats e in
  Alcotest.(check (pair int int)) "two submission batches, four actions"
    (2, 4)
    (stats.Engine.s_submit_batches, stats.Engine.s_batched_submissions)

let prop_persist_recovery_invariants =
  (* Random interleavings of ongoing/red/green logging from 3 creators:
     recovery must produce a contiguous red cut per creator, greens in
     logged order, and own ongoing actions above the red cut. *)
  QCheck.Test.make ~name:"recovery invariants over random logs" ~count:100
    QCheck.(list (pair (int_bound 2) bool))
    (fun script ->
      let sim, persist = make_persist () in
      let next = Array.make 3 0 in
      let logged_green = ref [] in
      List.iter
        (fun (creator, also_green) ->
          next.(creator) <- next.(creator) + 1;
          let a =
            Action.make ~server:creator ~index:next.(creator) (Action.Update [])
          in
          if creator = 0 then Persist.log_ongoing_batch persist [ a ];
          Persist.log_red_batch persist [ a ];
          if also_green then begin
            Persist.log_green_batch persist [ a.Action.id ];
            logged_green := a.Action.id :: !logged_green
          end)
        script;
      Persist.sync persist ignore;
      Repro_sim.Engine.run sim;
      let r = Persist.recover ~self:0 persist in
      let greens = List.map (fun a -> a.Action.id) r.Persist.r_green in
      let cut_ok =
        List.for_all
          (fun c ->
            match Node_id.Map.find_opt c r.Persist.r_red_cut with
            | Some cut -> cut = next.(c)
            | None -> next.(c) = 0)
          [ 0; 1; 2 ]
      in
      let greens_ok = greens = List.rev !logged_green in
      let ongoing_ok =
        List.for_all
          (fun a -> a.Action.id.Action.Id.index > next.(0))
          r.Persist.r_ongoing
        (* every own action was logged red, so none is still ongoing *)
        && r.Persist.r_ongoing = []
      in
      cut_ok && greens_ok && ongoing_ok)

let mk_state ~server ~green ~floor ~cuts =
  {
    Types.sm_server = server;
    sm_conf = { Repro_gcs.Conf_id.coord = 0; counter = 1 };
    sm_red_cut =
      List.fold_left
        (fun m (c, i) -> Node_id.Map.add c i m)
        Node_id.Map.empty cuts;
    sm_green_count = green;
    sm_green_line = None;
    sm_green_floor = floor;
    sm_attempt = 0;
    sm_prim = Types.initial_prim ~servers:(Node_id.set_of_list [ 0; 1; 2 ]);
    sm_vulnerable = Types.invalid_vulnerable;
    sm_yellow = Types.invalid_yellow;
  }

(* ComputeKnowledge at exchange scale: 200 members, each advertising a
   different yellow prefix, green count and red cut.  Checks the
   intersection (reference order preserved, shortest prefix survives),
   the green span and plan, and the per-creator red target — the
   whole-group path the intersection/array rework optimizes. *)
let test_knowledge_exchange_200_members () =
  let n = 200 in
  let ids = List.init n Fun.id in
  let members = Node_id.set_of_list ids in
  let prim = Types.initial_prim ~servers:members in
  let yellow_ids len =
    List.init len (fun i -> { Action.Id.server = 0; index = i + 1 })
  in
  let states =
    List.fold_left
      (fun m s ->
        let sm =
          {
            Types.sm_server = s;
            sm_conf = { Repro_gcs.Conf_id.coord = 0; counter = 1 };
            sm_red_cut = Node_id.Map.singleton 0 (50 + (s mod 3));
            sm_green_count = 100 + (s mod 7);
            sm_green_line = None;
            sm_green_floor = 0;
            sm_attempt = s mod 4;
            sm_prim = prim;
            sm_vulnerable = Types.invalid_vulnerable;
            sm_yellow =
              { Types.y_valid = true; y_set = yellow_ids (10 + (s mod 5)) };
          }
        in
        Node_id.Map.add s sm m)
      Node_id.Map.empty ids
  in
  let k = Knowledge.compute ~members states in
  Alcotest.(check int) "attempt is the group max" 3 k.Knowledge.k_attempt;
  Alcotest.(check int) "green target is the max count" 106
    k.Knowledge.k_green_target;
  Alcotest.(check bool) "yellow knowledge is valid" true
    k.Knowledge.k_yellow.Types.y_valid;
  Alcotest.(check bool) "yellow intersection keeps the reference prefix" true
    (k.Knowledge.k_yellow.Types.y_set = yellow_ids 10);
  Alcotest.(check bool) "red target is the max advertised cut" true
    (Node_id.Map.find_opt 0 k.Knowledge.k_red_targets = Some 52);
  let covered =
    List.fold_left
      (fun acc (_, from_pos, to_pos) -> if from_pos = acc then to_pos else acc)
      100 k.Knowledge.k_green_plan
  in
  Alcotest.(check int) "green plan covers (min, max]" 106 covered

let prop_knowledge_green_plan_covers =
  (* Whenever some member with floor 0 holds the maximum green count, the
     plan must cover exactly (min, max]. *)
  QCheck.Test.make ~name:"green plan covers the span" ~count:200
    QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let states =
        [ (0, mk_state ~server:0 ~green:hi ~floor:0 ~cuts:[]);
          (1, mk_state ~server:1 ~green:lo ~floor:0 ~cuts:[]);
          (2, mk_state ~server:2 ~green:hi ~floor:hi ~cuts:[]) ]
        |> List.fold_left
             (fun m (n, sm) -> Node_id.Map.add n sm m)
             Node_id.Map.empty
      in
      let k =
        Knowledge.compute ~members:(Node_id.set_of_list [ 0; 1; 2 ]) states
      in
      let covered =
        List.fold_left
          (fun acc (_, from_pos, to_pos) ->
            if from_pos = acc then to_pos else acc)
          lo k.Knowledge.k_green_plan
      in
      covered = hi && k.Knowledge.k_green_target = hi)

let prop_knowledge_red_duties_cover =
  QCheck.Test.make ~name:"red duties cover every target" ~count:200
    QCheck.(list_of_size Gen.(return 3) (int_bound 20))
    (fun cuts ->
      match cuts with
      | [ c0; c1; c2 ] ->
        let state n own =
          mk_state ~server:n ~green:0 ~floor:0 ~cuts:[ (9, own) ]
        in
        let states =
          List.fold_left
            (fun m (n, sm) -> Node_id.Map.add n sm m)
            Node_id.Map.empty
            [ (0, state 0 c0); (1, state 1 c1); (2, state 2 c2) ]
        in
        let members = Node_id.set_of_list [ 0; 1; 2 ] in
        let k = Knowledge.compute ~members states in
        let all_duties =
          List.concat_map
            (fun self -> Knowledge.red_duties ~self ~knowledge:k ~states)
            [ 0; 1; 2 ]
        in
        let target = max c0 (max c1 c2) and low = min c0 (min c1 c2) in
        if target = low then all_duties = []
        else (
          match all_duties with
          | [ (9, d_low, d_high) ] -> d_low = low && d_high = target
          | _ -> false)
      | _ -> QCheck.assume_fail ())

(* --- unit tests of the pure pieces -------------------------------- *)

let test_quorum_majority () =
  let open Quorum in
  let set = Node_id.set_of_list in
  let prev = set [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "3 of 5" true (has_majority ~prev (set [ 0; 1; 2 ]));
  Alcotest.(check bool) "2 of 5" false (has_majority ~prev (set [ 3; 4 ]));
  Alcotest.(check bool) "tie with breaker" true
    (has_majority ~prev:(set [ 0; 1; 2; 3 ]) (set [ 0; 1 ]));
  Alcotest.(check bool) "tie without breaker" false
    (has_majority ~prev:(set [ 0; 1; 2; 3 ]) (set [ 2; 3 ]));
  Alcotest.(check bool) "vulnerable blocks" false
    (is_quorum ~prev ~vulnerable_present:true (set [ 0; 1; 2; 3; 4 ]))

let test_quorum_policies () =
  let set = Node_id.set_of_list in
  let all = set [ 0; 1; 2; 3; 4 ] in
  let prev = set [ 0; 1; 2 ] in
  (* {0,1} is a majority of the last primary but not of the full set. *)
  Alcotest.(check bool) "dlv adapts to the last primary" true
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev ~all
       ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "static majority refuses" false
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "static majority accepts 3 of 5" true
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:false (set [ 2; 3; 4 ]));
  Alcotest.(check bool) "dlv refuses non-prim members" false
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev ~all
       ~vulnerable_present:false (set [ 3; 4 ]));
  Alcotest.(check bool) "vulnerability blocks both" false
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:true all)

let test_quorum_ties () =
  let set = Node_id.set_of_list in
  let dlv = Quorum.policy_quorum Quorum.Dynamic_linear in
  let static = Quorum.policy_quorum Quorum.Static_majority in
  let weak = Quorum.policy_quorum Quorum.Mutated_weak_majority in
  (* The tie-breaker is the lowest id of the set voted over, not node 0. *)
  let prev = set [ 3; 5; 8; 9 ] in
  let all = set [ 0; 3; 5; 8; 9 ] in
  Alcotest.(check bool) "half with the lowest id of prev" true
    (dlv ~prev ~all ~vulnerable_present:false (set [ 3; 9 ]));
  Alcotest.(check bool) "the other half" false
    (dlv ~prev ~all ~vulnerable_present:false (set [ 5; 8 ]));
  Alcotest.(check bool) "two-member prev: lower id alone" true
    (Quorum.has_majority ~prev:(set [ 4; 7 ]) (set [ 4 ]));
  Alcotest.(check bool) "two-member prev: higher id alone" false
    (Quorum.has_majority ~prev:(set [ 4; 7 ]) (set [ 7 ]));
  (* Static majority breaks its ties over the full replica set. *)
  let all4 = set [ 0; 1; 2; 3 ] in
  let prev2 = set [ 2; 3 ] in
  Alcotest.(check bool) "static tie with node 0" true
    (static ~prev:prev2 ~all:all4 ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "static tie without node 0" false
    (static ~prev:prev2 ~all:all4 ~vulnerable_present:false (set [ 2; 3 ]));
  (* Without a tie-breaker both disjoint halves would be quorate. *)
  Alcotest.(check bool) "weak majority: one half" true
    (weak ~prev ~all ~vulnerable_present:false (set [ 3; 9 ]));
  Alcotest.(check bool) "weak majority: the other half" true
    (weak ~prev ~all ~vulnerable_present:false (set [ 5; 8 ]))

let test_quorum_empty_prev () =
  let set = Node_id.set_of_list in
  let empty = Node_id.Set.empty in
  (* An empty last-primary membership grants no quorum to anyone: the
     candidate must wait for knowledge of the real last primary. *)
  Alcotest.(check bool) "no majority of nothing" false
    (Quorum.has_majority ~prev:empty (set [ 0; 1; 2 ]));
  Alcotest.(check bool) "not even the empty set" false
    (Quorum.has_majority ~prev:empty empty);
  Alcotest.(check bool) "IsQuorum refuses too" false
    (Quorum.is_quorum ~prev:empty ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "both policies refuse" false
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev:empty ~all:empty
       ~vulnerable_present:false (set [ 0 ])
    || Quorum.policy_quorum Quorum.Static_majority ~prev:empty ~all:empty
         ~vulnerable_present:false (set [ 0 ]))

(* The vulnerable record through ComputeKnowledge (paper A.7 steps 3-4):
   when is a proposed member still an obstacle to a quorum? *)
let test_knowledge_vulnerable_invalidation () =
  let set = Node_id.set_of_list in
  let members = set [ 0; 1; 2 ] in
  let vuln ~bits ~vset ~attempt =
    {
      Types.v_valid = true;
      v_prim_index = 0;
      v_attempt = attempt;
      v_set = set vset;
      v_bits = set bits;
    }
  in
  let states l =
    List.fold_left
      (fun m (n, sm) -> Node_id.Map.add n sm m)
      Node_id.Map.empty l
  in
  let base n = mk_state ~server:n ~green:0 ~floor:0 ~cuts:[] in
  let with_vuln n v = { (base n) with Types.sm_vulnerable = v } in
  let valid_members k =
    Node_id.Map.fold
      (fun n v acc -> if v.Types.v_valid then n :: acc else acc)
      k.Knowledge.k_vulnerable []
    |> List.rev
  in
  (* Step 4: the union of safe-delivery bits covers the whole attempt
     set — the outcome is durably known, vulnerability clears. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[ 0 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
           (1, with_vuln 1 (vuln ~bits:[ 1 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
           (2, with_vuln 2 (vuln ~bits:[ 2 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
         ])
  in
  Alcotest.(check (list int)) "united bits clear every record" []
    (valid_members k);
  (* Bits short of the set: the proposed members stay vulnerable, and a
     component containing them must be refused. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[ 0 ] ~vset:[ 0; 1; 9 ] ~attempt:1));
           (1, with_vuln 1 (vuln ~bits:[ 1 ] ~vset:[ 0; 1; 9 ] ~attempt:1));
           (2, base 2);
         ])
  in
  Alcotest.(check (list int)) "absent participant keeps them vulnerable"
    [ 0; 1 ] (valid_members k);
  Alcotest.(check bool) "no quorum over a vulnerable member" false
    (Quorum.is_quorum ~prev:members ~vulnerable_present:true members);
  (* Step 3, contradiction: a member of the attempt set reports a
     different (or no) attempt — the attempt cannot have installed
     anywhere, the record clears. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[] ~vset:[ 0; 2 ] ~attempt:1));
           (1, base 1);
           (2, base 2);
         ])
  in
  Alcotest.(check (list int)) "contradicted attempt clears" []
    (valid_members k);
  (* Step 3, membership: a vulnerable server outside the maximal known
     primary component cannot matter to its quorum. *)
  let outside_prim n v =
    {
      (with_vuln n v) with
      Types.sm_prim =
        { (Types.initial_prim ~servers:members) with
          Types.prim_servers = set [ 1; 2 ]
        };
    }
  in
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, outside_prim 0 (vuln ~bits:[] ~vset:[ 0; 9 ] ~attempt:1));
           (1, outside_prim 1 Types.invalid_vulnerable);
           (2, outside_prim 2 Types.invalid_vulnerable);
         ])
  in
  Alcotest.(check (list int)) "outside the primary clears" []
    (valid_members k)

let prop_quorum_unique =
  QCheck.Test.make ~name:"two disjoint components never both quorate" ~count:300
    QCheck.(pair (list_of_size Gen.(return 5) (int_bound 1)) unit)
    (fun (mask, ()) ->
      let prev = Node_id.set_of_list [ 0; 1; 2; 3; 4 ] in
      let left =
        Node_id.set_of_list
          (List.filteri (fun i _ -> List.nth mask i = 0) [ 0; 1; 2; 3; 4 ])
      in
      let right = Node_id.Set.diff prev left in
      not
        (Quorum.has_majority ~prev left && Quorum.has_majority ~prev right))

let test_action_queue_basics () =
  let q = Action_queue.create () in
  let a i = Action.make ~server:0 ~index:i (Action.Update []) in
  Action_queue.add_red q (a 1);
  Action_queue.add_red q (a 2);
  Alcotest.(check int) "two red" 2 (Action_queue.red_count q);
  let pos = Action_queue.append_green q (a 1) in
  Alcotest.(check int) "first green position" 1 pos;
  Alcotest.(check int) "red shrank" 1 (Action_queue.red_count q);
  Alcotest.(check bool) "is green" true
    (Action_queue.is_green q { Action.Id.server = 0; index = 1 });
  Alcotest.(check int) "green count" 1 (Action_queue.green_count q);
  (match Action_queue.green_line q with
  | Some id -> Alcotest.(check bool) "green line" true (id.Action.Id.index = 1)
  | None -> Alcotest.fail "no green line")

let test_action_queue_discard () =
  let q = Action_queue.create () in
  let a i = Action.make ~server:0 ~index:i (Action.Update []) in
  for i = 1 to 10 do
    ignore (Action_queue.append_green q (a i))
  done;
  let dropped = Action_queue.discard_below q 6 in
  Alcotest.(check int) "six bodies dropped" 6 dropped;
  Alcotest.(check int) "count unchanged" 10 (Action_queue.green_count q);
  Alcotest.(check int) "floor raised" 6 (Action_queue.green_floor q);
  Alcotest.(check bool) "greenness preserved" true
    (Action_queue.is_green q { Action.Id.server = 0; index = 3 });
  Alcotest.(check (option int)) "body gone" None
    (Option.map (fun _ -> 0) (Action_queue.find q { Action.Id.server = 0; index = 3 }));
  Alcotest.(check int) "bodies above floor remain" 7
    (Action_queue.nth_green q 7).Action.id.Action.Id.index;
  Alcotest.(check int) "idempotent below floor" 0 (Action_queue.discard_below q 4)

let test_action_queue_floor () =
  let q = Action_queue.create () in
  Action_queue.set_join_floor q ~count:10
    ~line:(Some { Action.Id.server = 3; index = 4 })
    ~cut:(Node_id.Map.singleton 3 4);
  Alcotest.(check int) "floor count" 10 (Action_queue.green_count q);
  let a = Action.make ~server:1 ~index:1 (Action.Update []) in
  let pos = Action_queue.append_green q a in
  Alcotest.(check int) "continues above floor" 11 pos;
  Alcotest.(check int) "nth above floor ok" 1
    (Action_queue.nth_green q 11).Action.id.Action.Id.index

(* --- the replica log against its boxed-record model ------------------ *)

(* The replica log as it was before frames carried their kind: a boxed
   record per logged action or mark ([E_red], [E_green], ...) in frames
   that are record arrays, compacted record by record.  Kept as the
   reference model for [Persist]: on the same operations over equally
   seeded disks both logs must hold the same records in the same
   frames, draw the same faults and recover the same state. *)
module Model = struct
  open Repro_storage

  type entry =
    | E_ongoing of Action.t
    | E_red of Action.t
    | E_green of Action.Id.t
    | E_meta of Types.meta
    | E_checkpoint of Persist.checkpoint

  type t = entry array Wlog.t

  let create ~engine ~disk : t =
    Wlog.create ~engine ~disk ~records:Array.length ()

  let append (t : t) entry xs = Wlog.append t (Array.of_list (List.map entry xs))
  let log_ongoing t = append t (fun a -> E_ongoing a)
  let log_red t = append t (fun a -> E_red a)
  let log_green t = append t (fun id -> E_green id)
  let log_meta (t : t) m = Wlog.append t [| E_meta m |]
  let log_checkpoint (t : t) c = Wlog.append t [| E_checkpoint c |]

  let cut_of map server =
    Option.value ~default:0 (Node_id.Map.find_opt server map)

  let parse ~self entries =
    let bodies = Action.Id.Tbl.create 16 and greened = Action.Id.Tbl.create 16 in
    let meta = ref None and checkpoint = ref None in
    let green_rev = ref [] and red_order_rev = ref [] and ongoing_rev = ref [] in
    let red_cut = ref Node_id.Map.empty and action_index = ref 0 in
    let note_own (id : Action.Id.t) =
      if Node_id.equal id.server self && id.index > !action_index then
        action_index := id.index
    in
    List.iter
      (function
        | E_ongoing a ->
          ongoing_rev := a :: !ongoing_rev;
          note_own a.Action.id
        | E_red a ->
          let id = a.Action.id in
          Action.Id.Tbl.replace bodies id a;
          red_order_rev := id :: !red_order_rev;
          if id.index > cut_of !red_cut id.server then
            red_cut := Node_id.Map.add id.server id.index !red_cut;
          note_own id
        | E_green id -> (
          match Action.Id.Tbl.find_opt bodies id with
          | Some a when not (Action.Id.Tbl.mem greened id) ->
            Action.Id.Tbl.replace greened id ();
            green_rev := a :: !green_rev
          | Some _ | None -> ())
        | E_meta m -> meta := Some m
        | E_checkpoint c ->
          checkpoint := Some c;
          meta := Some c.Persist.c_meta;
          let cut = c.Persist.c_green_cut in
          action_index := max !action_index (cut_of cut self);
          green_rev := [];
          Action.Id.Tbl.reset greened;
          red_order_rev :=
            List.filter
              (fun (id : Action.Id.t) -> id.index > cut_of cut id.server)
              !red_order_rev;
          red_cut := Node_id.Map.union (fun _ a b -> Some (max a b)) cut !red_cut)
      entries;
    let red =
      List.rev !red_order_rev
      |> List.filter_map (fun id ->
             if Action.Id.Tbl.mem greened id then None
             else Action.Id.Tbl.find_opt bodies id)
    in
    let ongoing =
      List.rev !ongoing_rev
      |> List.filter (fun a -> a.Action.id.index > cut_of !red_cut self)
    in
    (!meta, List.rev !green_rev, !checkpoint, red, ongoing, !red_cut, !action_index)

  let checkpoints entries =
    List.length (List.filter (function E_checkpoint _ -> true | _ -> false) entries)

  let max_own_index ~self entries =
    List.fold_left
      (fun acc entry ->
        let own (id : Action.Id.t) =
          if Node_id.equal id.server self then max acc id.index else acc
        in
        match entry with
        | E_ongoing a | E_red a -> own a.Action.id
        | E_green id -> own id
        | E_meta _ | E_checkpoint _ -> acc)
      0 entries

  let newest_meta entries =
    List.fold_left
      (fun acc -> function
        | E_meta m -> Some m
        | E_checkpoint c -> Some c.Persist.c_meta
        | E_ongoing _ | E_red _ | E_green _ -> acc)
      None entries

  let refill_own ~self ~readable ~own_cut ~floor =
    let bodies = Hashtbl.create 8 in
    List.iter
      (function
        | (E_ongoing a | E_red a) when Node_id.equal a.Action.id.server self ->
          Hashtbl.replace bodies a.Action.id.index a
        | _ -> ())
      readable;
    List.init (max 0 (floor - own_cut)) (fun i ->
        let idx = own_cut + 1 + i in
        match Hashtbl.find_opt bodies idx with
        | Some a -> a
        | None ->
          Action.make ~client:0 ~size:32 ~server:self ~index:idx
            (Action.Update []))

  let recover ~self (t : t) : Persist.recovered =
    let rv = Wlog.recover t in
    let records frames = List.concat_map Array.to_list frames in
    let trusted = records rv.Wlog.rv_trusted
    and readable = records rv.Wlog.rv_readable in
    let finish verdict ~meta_override ~action_floor =
      let meta, green, checkpoint, red, ongoing, red_cut, action_index =
        parse ~self trusted
      in
      {
        Persist.r_meta = (match meta_override with Some _ -> meta_override | None -> meta);
        r_green = green;
        r_checkpoint = checkpoint;
        r_red = red;
        r_ongoing = ongoing;
        r_red_cut = red_cut;
        r_action_index = max action_index action_floor;
        r_verdict = verdict;
        r_read_retries = rv.Wlog.rv_read_retries;
        r_backoff = rv.Wlog.rv_backoff;
      }
    in
    let truncate i =
      let before = Wlog.length t in
      Wlog.truncate_damaged t ~from:i;
      before - Wlog.length t
    in
    match rv.Wlog.rv_verdict with
    | Wlog.Clean -> finish Persist.V_clean ~meta_override:None ~action_floor:0
    | Wlog.Torn_tail i ->
      let dropped = truncate i in
      finish (Persist.V_torn_tail dropped) ~meta_override:None ~action_floor:0
    | Wlog.Corrupt_interior i when i = 0 || checkpoints readable > checkpoints trusted ->
      let action_floor = max_own_index ~self readable in
      Wlog.reset t;
      {
        Persist.r_meta = None;
        r_green = [];
        r_checkpoint = None;
        r_red = [];
        r_ongoing = [];
        r_red_cut = Node_id.Map.empty;
        r_action_index = action_floor;
        r_verdict = Persist.V_amnesia;
        r_read_retries = rv.Wlog.rv_read_retries;
        r_backoff = rv.Wlog.rv_backoff;
      }
    | Wlog.Corrupt_interior i ->
      let dropped = truncate i in
      let r =
        finish (Persist.V_salvaged dropped) ~meta_override:(newest_meta readable)
          ~action_floor:(max_own_index ~self readable)
      in
      let own_cut =
        List.fold_left
          (fun acc (a : Action.t) -> max acc a.id.index)
          (cut_of r.Persist.r_red_cut self) r.Persist.r_ongoing
      in
      {
        r with
        Persist.r_ongoing =
          r.Persist.r_ongoing
          @ refill_own ~self ~readable ~own_cut ~floor:r.Persist.r_action_index;
      }

  let compact (t : t) =
    if Wlog.clean t then
      match
        Wlog.find_newest t (fun frame ->
            Array.fold_left
              (fun acc -> function E_checkpoint c -> Some c | _ -> acc)
              None frame)
      with
      | None -> ()
      | Some c ->
        let covered (id : Action.Id.t) =
          id.index <= cut_of c.Persist.c_green_cut id.server
        in
        let after = ref false in
        let keep = function
          | _ when !after -> true
          | E_checkpoint c' when c' == c ->
            after := true;
            true
          | E_checkpoint _ | E_meta _ | E_green _ -> false
          | E_red a | E_ongoing a -> not (covered a.Action.id)
        in
        Wlog.compact t ~keep:(fun frame ->
            let kept = Array.map keep frame in
            if Array.for_all Fun.id kept then Some frame
            else
              Some
                (Array.of_list
                   (List.filteri (fun i _ -> kept.(i)) (Array.to_list frame))))
end

type persist_op =
  | P_ongoing of int
  | P_red of int * int * bool  (** creator, count, from a mark array *)
  | P_green of int * bool  (** how many of the oldest ungreened reds *)
  | P_meta
  | P_checkpoint
  | P_sync
  | P_crash
  | P_corrupt of int
  | P_compact
  | P_recover

let gen_persist_ops =
  let open QCheck.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map (fun n -> P_ongoing n) (int_range 1 3));
         (6, map3 (fun c n m -> P_red (c, n, m)) (int_bound 2) (int_range 1 4) bool);
         (5, map2 (fun n m -> P_green (n, m)) (int_range 1 4) bool);
         (1, return P_meta);
         (2, return P_checkpoint);
         (4, return P_sync);
         (2, return P_crash);
         (1, map (fun n -> P_corrupt n) (int_bound 30));
         (2, return P_compact);
         (2, return P_recover);
       ])

let pp_persist_op = function
  | P_ongoing n -> Printf.sprintf "ongoing %d" n
  | P_red (c, n, m) -> Printf.sprintf "red c%d x%d%s" c n (if m then " marks" else "")
  | P_green (n, m) -> Printf.sprintf "green x%d%s" n (if m then " marks" else "")
  | P_meta -> "meta"
  | P_checkpoint -> "checkpoint"
  | P_sync -> "sync"
  | P_crash -> "crash"
  | P_corrupt n -> Printf.sprintf "corrupt %d" n
  | P_compact -> "compact"
  | P_recover -> "recover"

let prop_persist_matches_model =
  let faults =
    {
      Repro_storage.Disk.no_faults with
      torn_tail_on_crash = 0.5;
      corrupt_on_crash = 0.1;
      read_error = 0.05;
      read_retries = 3;
    }
  in
  let config =
    { Repro_storage.Disk.default_forced with sync_latency = Time.of_ms 1.; faults }
  in
  let disk_on sim = Repro_storage.Disk.create ~engine:sim ~config () in
  let recovered_equal (a : Persist.recovered) (b : Persist.recovered) =
    let ids l = List.map (fun (x : Action.t) -> x.id) l in
    a.r_verdict = b.r_verdict
    && a.r_meta = b.r_meta
    && ids a.r_green = ids b.r_green
    && (match (a.r_checkpoint, b.r_checkpoint) with
       | Some x, Some y -> x == y
       | None, None -> true
       | _ -> false)
    && a.r_red = b.r_red && a.r_ongoing = b.r_ongoing
    && Node_id.Map.equal Int.equal a.r_red_cut b.r_red_cut
    && a.r_action_index = b.r_action_index
    && a.r_read_retries = b.r_read_retries
    && Time.to_us a.r_backoff = Time.to_us b.r_backoff
  in
  QCheck.Test.make ~name:"persist matches the boxed-record model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_persist_op ops))
       gen_persist_ops)
    (fun ops ->
      let sim = Repro_sim.Engine.create ~seed:11 () in
      let msim = Repro_sim.Engine.create ~seed:11 () in
      let p = Persist.create ~engine:sim ~disk:(disk_on sim) () in
      let m = Model.create ~engine:msim ~disk:(disk_on msim) in
      let next = Array.make 3 0 and ungreened = Queue.create () in
      let green_cut = ref Node_id.Map.empty and greens = ref 0 in
      let checkpoints = ref 0 in
      let meta k =
        {
          Types.m_prim = Types.initial_prim ~servers:(Node_id.Set.singleton 0);
          m_vulnerable = Types.invalid_vulnerable;
          m_attempt = k;
          m_yellow = Types.invalid_yellow;
          m_servers = Node_id.Set.singleton 0;
        }
      in
      let snapshot = Database.snapshot (Database.create ()) in
      let dedup = Dedup.snapshot (Dedup.create ~window:4 ()) in
      let fresh creator n =
        List.init n (fun _ ->
            next.(creator) <- next.(creator) + 1;
            Action.make ~server:creator ~index:next.(creator) (Action.Update []))
      in
      let step ok op =
        ok
        &&
        match op with
        | P_ongoing n ->
          let actions = fresh 0 n in
          Persist.log_ongoing_batch p actions;
          Model.log_ongoing m actions;
          true
        | P_red (c, n, marks) ->
          let actions = fresh c n in
          List.iter (fun a -> Queue.push a ungreened) actions;
          if marks then Persist.log_red_marks p (Array.of_list actions)
          else Persist.log_red_batch p actions;
          Model.log_red m actions;
          true
        | P_green (n, marks) ->
          let actions =
            List.filter_map (fun _ -> Queue.take_opt ungreened) (List.init n Fun.id)
          in
          List.iter
            (fun (a : Action.t) ->
              incr greens;
              green_cut := Node_id.Map.add a.id.server a.id.index !green_cut)
            actions;
          let ids = List.map (fun (a : Action.t) -> a.id) actions in
          if marks then Persist.log_green_marks p (Array.of_list actions)
          else Persist.log_green_batch p ids;
          Model.log_green m ids;
          true
        | P_meta ->
          let mt = meta !greens in
          Persist.log_meta p mt;
          Model.log_meta m mt;
          true
        | P_checkpoint ->
          incr checkpoints;
          let c =
            {
              Persist.c_snapshot = snapshot;
              c_green_count = !greens;
              c_green_line = None;
              c_green_cut = !green_cut;
              c_meta = meta !checkpoints;
              c_dedup = dedup;
            }
          in
          Persist.log_checkpoint p c;
          Model.log_checkpoint m c;
          true
        | P_sync ->
          Persist.sync p ignore;
          Repro_storage.Wlog.sync m ignore;
          Repro_sim.Engine.run sim;
          Repro_sim.Engine.run msim;
          true
        | P_crash ->
          Persist.crash p;
          Repro_storage.Wlog.crash m;
          true
        | P_corrupt n -> Persist.corrupt_nth p n = Repro_storage.Wlog.corrupt m ~nth:n
        | P_compact ->
          Persist.compact p;
          Model.compact m;
          true
        | P_recover ->
          recovered_equal (Persist.recover ~self:0 p) (Model.recover ~self:0 m)
      in
      let same_shape () =
        Persist.entries_logged p = Repro_storage.Wlog.length m
        && Persist.frames_logged p = Repro_storage.Wlog.frame_count m
      in
      List.fold_left (fun ok op -> step ok op && same_shape ()) true (ops @ [ P_recover ]))

(* [find] looks up red bodies only: a body leaves the table as its
   action turns green (the green prefix keeps it, by position), and a
   green action cannot come back as red, before or after its body is
   discarded. *)
let test_action_queue_find_red_only () =
  let q = Action_queue.create () in
  let a i = Action.make ~server:0 ~index:i (Action.Update []) in
  let found () =
    List.map
      (fun i -> Option.is_some (Action_queue.find q { Action.Id.server = 0; index = i }))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  for i = 1 to 6 do
    Action_queue.add_red q (a i)
  done;
  for i = 1 to 4 do
    ignore (Action_queue.append_green q (a i))
  done;
  Alcotest.(check (list bool)) "reds found, greens not"
    [ false; false; false; false; true; true ] (found ());
  Action_queue.add_red q (a 3);
  Alcotest.(check int) "a green is not re-added as red" 2
    (Action_queue.red_count q);
  Alcotest.(check int) "discarded below 3" 3 (Action_queue.discard_below q 3);
  Action_queue.add_red q (a 2);
  Alcotest.(check int) "nor a discarded one" 2 (Action_queue.red_count q);
  ignore (Action_queue.append_green q (a 5));
  Alcotest.(check (list bool)) "after the discard"
    [ false; false; false; false; false; true ] (found ());
  Alcotest.(check int) "a green body is still there by position" 4
    (Action_queue.nth_green q 4).Action.id.Action.Id.index

(* The queue keeps a green action once, in the green prefix: over
   10,000 greens its own words grow by the prefix's array slot alone
   (at most two words a green while the array doubles), not by a table
   entry per green as well. *)
let test_action_queue_green_retention () =
  let n = 10_000 in
  let actions =
    Array.init n (fun i ->
        Action.make ~server:(i mod 4) ~index:((i / 4) + 1) (Action.Update []))
  in
  let q = Action_queue.create () in
  let own () =
    Obj.reachable_words (Obj.repr (q, actions))
    - Obj.reachable_words (Obj.repr actions)
  in
  let before = own () in
  Array.iter (fun a -> ignore (Action_queue.append_green q a)) actions;
  let per_green = float_of_int (own () - before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per green" per_green)
    true (per_green <= 2.5)

(* --- the dedup window ----------------------------------------------- *)

(* The sorted-list implementation the per-client ring replaced, kept
   as the reference model. *)
module Dedup_ref = struct
  type entry = {
    mutable hi : int;
    mutable ack : int;
    mutable cache : (int * Action.response) list; (* seq descending *)
  }

  type t = { window : int; tbl : (int, entry) Hashtbl.t }

  let create window = { window = max 1 window; tbl = Hashtbl.create 8 }

  let check t ~client ~seq =
    if seq <= 0 then Dedup.Fresh
    else
      match Hashtbl.find_opt t.tbl client with
      | None -> Dedup.Fresh
      | Some e ->
        if seq <= e.hi then Dedup.Duplicate (List.assoc_opt seq e.cache)
        else Dedup.Fresh

  let prune t e =
    e.cache <-
      List.filteri
        (fun i _ -> i < t.window)
        (List.filter (fun (s, _) -> s > e.ack) e.cache)

  let observe_ack t ~client ~ack =
    if ack > 0 then
      match Hashtbl.find_opt t.tbl client with
      | None -> ()
      | Some e ->
        if ack > e.ack then begin
          e.ack <- ack;
          prune t e
        end

  let record t ~client ~seq ~ack r =
    if seq > 0 then begin
      let e =
        match Hashtbl.find_opt t.tbl client with
        | Some e -> e
        | None ->
          let e = { hi = 0; ack = 0; cache = [] } in
          Hashtbl.replace t.tbl client e;
          e
      in
      if seq > e.hi then e.hi <- seq;
      if ack > e.ack then e.ack <- ack;
      e.cache <-
        List.sort
          (fun (a, _) (b, _) -> Int.compare b a)
          ((seq, r) :: List.filter (fun (s, _) -> s <> seq) e.cache);
      prune t e
    end

  let hi t client =
    match Hashtbl.find_opt t.tbl client with Some e -> e.hi | None -> 0

  let max_cached t =
    Hashtbl.fold (fun _ e acc -> max acc (List.length e.cache)) t.tbl 0

  let snapshot t =
    List.sort compare
      (Hashtbl.fold (fun c e acc -> (c, e.hi, e.ack, e.cache) :: acc) t.tbl [])
end

let dedup_state d =
  List.map
    (fun c -> Dedup.(c.s_client, c.s_hi, c.s_ack, c.s_cache))
    (Dedup.snapshot d).Dedup.s_clients

(* Random record / observe_ack / check sequences over three clients,
   with snapshot round trips interleaved: the ring answers every check
   as the list model does and holds the same caches after every step.
   [record] is only reached for fresh requests, as on the apply path. *)
let prop_dedup_ring_matches_list_model =
  QCheck.Test.make ~name:"dedup ring matches the list model" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 0 200)
           (triple (int_bound 3) (int_range 1 3) (int_bound 1000))))
    (fun (window, ops) ->
      let model = Dedup_ref.create window in
      let d = ref (Dedup.create ~window ()) in
      List.for_all
        (fun (op, client, x) ->
          let hi = Dedup_ref.hi model client in
          let agrees =
            match op with
            | 0 ->
              let seq = hi + 1 + (x mod 3) in
              let ack = x mod (seq + 1) in
              let r = Action.Procedure_output (Value.Int seq) in
              let fresh =
                Dedup.check !d ~client ~seq = Dedup.Fresh
                && Dedup_ref.check model ~client ~seq = Dedup.Fresh
              in
              Dedup.record !d ~client ~seq ~ack r;
              Dedup_ref.record model ~client ~seq ~ack r;
              fresh
            | 1 ->
              let ack = x mod (hi + 3) in
              Dedup.observe_ack !d ~client ~ack;
              Dedup_ref.observe_ack model ~client ~ack;
              true
            | 2 ->
              let seq = x mod (hi + 2) in
              Dedup.check !d ~client ~seq = Dedup_ref.check model ~client ~seq
              && Dedup.is_applied !d ~client ~seq
                 = (Dedup_ref.check model ~client ~seq <> Dedup.Fresh)
            | _ ->
              d := Dedup.of_snapshot (Dedup.snapshot !d);
              true
          in
          agrees
          && Dedup.max_cached !d = Dedup_ref.max_cached model
          && Dedup.max_cached !d <= window
          && dedup_state !d = Dedup_ref.snapshot model)
        ops)

let test_dedup_snapshot_roundtrip () =
  let d = Dedup.create ~window:3 () in
  let r n = Action.Procedure_output (Value.Int n) in
  for seq = 1 to 5 do
    Dedup.record d ~client:1 ~seq ~ack:0 (r seq)
  done;
  Dedup.record d ~client:2 ~seq:4 ~ack:3 (r 40);
  Alcotest.(check int) "window caps the cache" 3 (Dedup.max_cached d);
  let s = Dedup.snapshot d in
  Alcotest.(check (list (pair int int))) "newest first"
    [ (5, 0); (4, 0); (3, 0) ]
    (List.map
       (fun (seq, _) -> (seq, 0))
       (List.hd s.Dedup.s_clients).Dedup.s_cache);
  let d' = Dedup.of_snapshot s in
  Alcotest.(check bool) "round trip" true (Dedup.snapshot d' = s);
  Alcotest.(check (list (triple int int int))) "summary" (Dedup.summary d)
    (Dedup.summary d');
  Alcotest.(check bool) "cached answer survives" true
    (Dedup.check d' ~client:1 ~seq:4 = Dedup.Duplicate (Some (r 4)));
  Alcotest.(check bool) "evicted answer is gone" true
    (Dedup.check d' ~client:1 ~seq:2 = Dedup.Duplicate None);
  Alcotest.(check bool) "past the high-water is fresh" true
    (Dedup.check d' ~client:2 ~seq:5 = Dedup.Fresh);
  Dedup.record d' ~client:1 ~seq:6 ~ack:4 (r 6);
  Alcotest.(check int) "ack drops the acknowledged" 2 (Dedup.max_cached d')

(* After warm-up the ring has grown to its high-water mark: booking
   and checking a fresh request allocates nothing, for a client whose
   acks keep up and for one whose cache the window caps. *)
let test_dedup_allocates_nothing () =
  let d = Dedup.create ~window:8 () in
  let r = Action.Committed [] in
  let step seq =
    (match Dedup.check d ~client:1 ~seq with
    | Dedup.Fresh -> Dedup.record d ~client:1 ~seq ~ack:(seq - 2) r
    | Dedup.Duplicate _ -> Alcotest.fail "client 1: not fresh");
    match Dedup.check d ~client:2 ~seq with
    | Dedup.Fresh -> Dedup.record d ~client:2 ~seq ~ack:0 r
    | Dedup.Duplicate _ -> Alcotest.fail "client 2: not fresh"
  in
  for seq = 1 to 100 do
    step seq
  done;
  let before = Gc.minor_words () in
  for seq = 101 to 1100 do
    step seq
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "window full" 8 (Dedup.max_cached d);
  Alcotest.(check (float 0.)) "words allocated" 0. allocated

let test_id_table_allocates_nothing () =
  let tbl = Action.Id.Tbl.create 16 in
  let ids =
    Array.init 500 (fun i -> { Action.Id.server = i mod 7; index = i / 7 })
  in
  Array.iteri (fun i id -> Action.Id.Tbl.replace tbl id i) ids;
  (* Equal ids, distinct records: found by value, not by address. *)
  let probes =
    Array.map (fun (id : Action.Id.t) -> { id with index = id.index }) ids
  in
  let before = Gc.minor_words () in
  let sum = ref 0 in
  for i = 0 to Array.length probes - 1 do
    if Action.Id.Tbl.mem tbl probes.(i) then
      sum := !sum + Action.Id.Tbl.find tbl probes.(i)
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "every id found by value" (499 * 500 / 2) !sum;
  Alcotest.(check (float 0.)) "words allocated" 0. allocated;
  Alcotest.(check bool) "hash agrees with equal" true
    (Array.for_all2
       (fun a b -> Action.Id.hash a = Action.Id.hash b)
       ids probes)

(* --- bounded green state ---------------------------------------------- *)

(* Greenness is a per-creator cut, not a per-id index.  Reference model:
   the per-id green set the queue used to keep, plus — for a queue
   created at a snapshot join floor — the inherited per-creator cut the
   engine consulted for ids it never held.  A history is a sequence of
   creator picks, each greening that creator's next index (FIFO per
   creator); its first [floor_len] greens arrive by snapshot, and the
   bodies below a random position are discarded midway.  After every
   append the two agree on every id up to one past each creator's
   cut, and re-appending a green id is refused. *)
let prop_green_cut_matches_id_set =
  QCheck.Test.make ~name:"per-creator green cut = per-id green set" ~count:300
    QCheck.(
      quad (int_range 1 4)
        (list_of_size Gen.(int_range 0 60) (int_bound 3))
        (int_bound 20) (int_bound 60))
    (fun (creators, picks, floor_len, discard_at) ->
      let picks = List.map (fun p -> p mod creators) picks in
      let floor_len = min floor_len (List.length picks) in
      let next = Array.make creators 0 in
      let inherited = Array.make creators 0 in
      let q = Action_queue.create () in
      let held = Action.Id.Tbl.create 64 in
      let id c i = { Action.Id.server = c; index = i } in
      let ref_green (x : Action.Id.t) =
        Action.Id.Tbl.mem held x || x.index <= inherited.(x.server)
      in
      let agree () =
        List.for_all
          (fun c ->
            List.for_all
              (fun i -> Action_queue.is_green q (id c i) = ref_green (id c i))
              (List.init (next.(c) + 1) (fun i -> i + 1)))
          (List.init creators Fun.id)
      in
      let ok = ref true in
      List.iteri
        (fun pos c ->
          next.(c) <- next.(c) + 1;
          if pos < floor_len then begin
            inherited.(c) <- next.(c);
            if pos = floor_len - 1 then
              Action_queue.set_join_floor q ~count:floor_len
                ~line:(Some (id c next.(c)))
                ~cut:
                  (List.fold_left
                     (fun m c ->
                       if inherited.(c) > 0 then
                         Node_id.Map.add c inherited.(c) m
                       else m)
                     Node_id.Map.empty (List.init creators Fun.id))
          end
          else begin
            let a = Action.make ~server:c ~index:next.(c) (Action.Update []) in
            ignore (Action_queue.append_green q a);
            Action.Id.Tbl.replace held a.Action.id ();
            if pos = discard_at then
              ignore (Action_queue.discard_below q (pos / 2));
            (match Action_queue.append_green q a with
            | _ -> ok := false
            | exception Invalid_argument _ -> ());
            ok := !ok && agree ()
          end)
        picks;
      !ok && agree ())

(* A member whose green count is below every other member's floor — the
   bodies it lacks were white and have been discarded everywhere — must
   re-enter by state transfer and converge.  Replica 2 salvages a log
   whose tail of green marks was damaged, so it comes back below the
   count its own actions told the peers it held; the peers checkpoint
   in the meantime and discard the bodies below that count. *)
let test_stranded_member_resyncs () =
  let w = make_world ~seed:33 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 45 do
    set_kv' (rep w (i mod 3)) (Printf.sprintf "k%d" i) i;
    run_sim w ~ms:10.
  done;
  run_sim w ~ms:500.;
  let victim = rep w 2 in
  Replica.crash victim;
  Alcotest.(check bool) "log damaged in its first third" true
    (Replica.corrupt_log victim ~nth:(Replica.log_entries victim / 3));
  List.iter Replica.checkpoint_now [ rep w 0; rep w 1 ];
  run_sim w ~ms:200.;
  let floor = Repro_core.Engine.white_line (Replica.engine (rep w 0)) in
  Replica.recover victim;
  (match Replica.last_recovery victim with
  | Some (Persist.V_salvaged _) -> ()
  | v ->
    Alcotest.failf "expected a salvaged log, got %s"
      (match v with
      | None -> "no recovery"
      | Some v -> Format.asprintf "%a" Persist.pp_verdict v));
  let salvaged = Repro_core.Engine.green_count (Replica.engine victim) in
  Alcotest.(check bool)
    (Printf.sprintf "salvaged count %d below the peers' floor %d" salvaged
       floor)
    true (salvaged < floor);
  let chunks () =
    Replica.transfer_chunks_sent (rep w 0)
    + Replica.transfer_chunks_sent (rep w 1)
  in
  let chunks_before = chunks () in
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "rejoined" true (Replica.is_ready victim);
  Alcotest.(check bool) "served by state transfer" true
    (chunks () > chunks_before);
  Alcotest.(check int) "incarnation: crash + resync" 2
    (Replica.incarnation victim);
  (* The new incarnation mints fresh ids: its next action turns green
     everywhere. *)
  set_kv' victim "after" 1;
  run_sim w ~ms:1000.;
  Alcotest.(check int) "green everywhere" 46
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)));
  check_db_equal "resynced member converged" (rep w 0) victim;
  (* It holds bodies only above its transfer point. *)
  let mine = green_ids victim and theirs = green_ids (rep w 0) in
  Alcotest.(check bool) "same green suffix" true
    (mine <> []
    && List.equal Action.Id.equal mine
         (List.filteri
            (fun i _ -> i >= List.length theirs - List.length mine)
            theirs))

(* Every engine a replica builds votes by the replica's quorum policy:
   the one crash recovery rebuilds from the log and the one an amnesiac
   replica builds from a transferred snapshot as much as the first.
   Under a static majority of five, two replicas are never a primary,
   whatever a dynamic-linear-voting history would allow them. *)
let test_rebuilt_engines_keep_quorum_policy () =
  let module World = Repro_harness.World in
  let run ~amnesia =
    let w = World.make ~quorum_policy:Quorum.Static_majority ~seed:3 ~n:5 () in
    World.run w ~ms:1000.;
    let victims = [ World.replica w 0; World.replica w 1 ] in
    List.iter Replica.crash victims;
    if amnesia then
      List.iter (fun r -> ignore (Replica.corrupt_log r ~nth:0)) victims;
    World.run w ~ms:500.;
    List.iter Replica.recover victims;
    World.run w ~ms:3000.;
    if amnesia then
      Alcotest.(check bool) "both came back by state transfer" true
        (List.for_all
           (fun r -> Replica.last_recovery r = Some Persist.V_amnesia)
           victims);
    Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
    World.run w ~ms:3000.;
    Topology.partition (World.topology w) [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ];
    World.run w ~ms:3000.;
    Alcotest.(check bool)
      (Printf.sprintf "{0,1} hold no primary (amnesia: %b)" amnesia)
      false
      (List.exists Replica.in_primary victims)
  in
  run ~amnesia:false;
  run ~amnesia:true

(* A crash halts the engine the replica drops.  After a long partition
   the merge's exchange makes one member retransmit the missed greens
   in paced batches; crashing it mid-pacing must stop the rest — the
   dead life's batches would otherwise keep flowing into its endpoint,
   and into the next life's configuration if it recovered in time. *)
let test_crashed_engine_stays_silent () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:1500.;
  for i = 1 to 200 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:1000.;
  Topology.merge_all (topo w);
  let batches r = (Engine.stats (Replica.engine r)).Engine.s_retrans_batches in
  let before = List.map (fun r -> (r, batches r)) (all_replicas w) in
  let rec until_retransmitting budget =
    if budget = 0 then Alcotest.fail "no retransmission after the merge";
    run_sim w ~ms:0.25;
    match List.find_opt (fun (r, b) -> batches r > b) before with
    | Some (r, _) -> r
    | None -> until_retransmitting (budget - 1)
  in
  let sender = until_retransmitting 20_000 in
  let dead = Replica.engine sender in
  Replica.crash sender;
  let sent = (Engine.stats dead).Engine.s_retrans_batches in
  run_sim w ~ms:100.;
  Alcotest.(check int) "no batch after the crash" sent
    (Engine.stats dead).Engine.s_retrans_batches

(* A one-node engine over the abstract EVS model, settled into the
   regular primary: every frame, batch and delivery is observable.
   [own_via_model:false] drops the engine's own [Action_batch]
   multicasts, so a test delivers its own actions by hand, in any
   order. *)
let reg_prim_engine ?(on_green = ignore) ?(own_via_model = true) () =
  let sim, persist = make_persist () in
  let model =
    Repro_gcs.Model.create ~nodes:[ 0 ]
      ~pp_payload:(Format.asprintf "%a" Types.pp_payload)
      ()
  in
  let callbacks =
    {
      Engine.on_green;
      on_red = ignore;
      on_transfer_request = (fun ~joiner:_ -> ());
      on_self_leave = ignore;
      on_resync = ignore;
      send =
        (fun ~service:_ ~size:_ payload ->
          match payload with
          | Types.Action_batch _ when not own_via_model -> ()
          | _ -> Repro_gcs.Model.send model ~from:0 payload);
    }
  in
  let e =
    Engine.recover ~quorum:Quorum.Dynamic_linear ~recovered:Persist.fresh
      ~sim ~node:0 ~servers:(Node_id.Set.singleton 0) ~persist ~callbacks ()
  in
  let rec settle () =
    ignore (Repro_sim.Engine.drain sim);
    match Repro_gcs.Model.deliver model 0 with
    | None -> ()
    | Some ev ->
      Engine.handle_event e ev;
      settle ()
  in
  Repro_gcs.Model.reconfigure model ~components:[ Node_id.Set.singleton 0 ];
  settle ();
  Alcotest.(check bool) "in the regular primary" true
    (Engine.state e = Types.Reg_prim);
  (sim, persist, e, settle)

(* RegPrim marks a delivered action red and green in the same step: the
   action keeps its red log record, in a frame before its green one,
   but never enters the red region, whose order dirty reads and the
   determinism fingerprint read.  A yellow mark in a transitional
   primary still enters it.  A one-node group over the abstract EVS
   model, with the transitional configuration fed by hand. *)
let test_green_skips_red_region () =
  let sim, persist, e, settle = reg_prim_engine () in
  let created = ref [] in
  Engine.submit e ~client:0 ~semantics:Action.Strict ~size:200 ~req_seq:0
    ~req_ack:0 ~kind:(Action.Update [])
    ~on_created:(fun id -> created := [ id ]);
  (* The submission's own frame is forced before the action is sent. *)
  ignore (Repro_sim.Engine.drain sim);
  let ids actions = List.map (fun a -> a.Action.id) actions in
  let red_before = (Engine.red_count e, ids (Engine.red_actions e)) in
  let disk = Persist.disk persist in
  let frames () = Repro_storage.Disk.write_epoch disk in
  let frames_before = frames () and records_before = Persist.entries_logged persist in
  settle ();
  Alcotest.(check bool) "the action is green" true
    (ids (Engine.green_actions e) = !created);
  Alcotest.(check (pair int (list (of_pp Action.Id.pp))))
    "the red region is untouched" red_before
    (Engine.red_count e, ids (Engine.red_actions e));
  Alcotest.(check (pair int int)) "one red frame and one green frame"
    (frames_before + 2, records_before + 2)
    (frames (), Persist.entries_logged persist);
  (* Recovery greens an id only after its red record: the red frame came
     first, with the same id. *)
  let r = Persist.recover ~self:0 persist in
  Alcotest.(check (list (of_pp Action.Id.pp))) "recovered green" !created
    (ids r.Persist.r_green);
  Alcotest.(check (list (of_pp Action.Id.pp))) "recovered red" []
    (ids r.Persist.r_red);
  Engine.handle_event e
    (Repro_gcs.Endpoint.Trans_conf
       { id = { Repro_gcs.Conf_id.coord = 0; counter = 1_000_000 };
         members = Node_id.Set.singleton 0 });
  Alcotest.(check bool) "in the transitional primary" true
    (Engine.state e = Types.Trans_prim);
  let yellow = Action.make ~server:1 ~index:1 (Action.Update []) in
  Engine.handle_event e
    (Repro_gcs.Endpoint.Deliver
       {
         sender = 1;
         payload = Types.Action_batch [ yellow ];
         conf = { Repro_gcs.Conf_id.coord = 0; counter = 1_000_000 };
         seq = 2;
         in_regular = false;
       });
  Alcotest.(check (list (of_pp Action.Id.pp))) "the yellow action is red"
    [ yellow.Action.id ] (ids (Engine.red_actions e));
  Alcotest.(check bool) "and yellow" true
    (List.exists (Action.Id.equal yellow.Action.id) (Engine.yellow e).Types.y_set)

(* A joiner starts from the checkpoint its sponsor ships (paper §5.1):
   the newest checkpoint in its log is the sponsor's at the transfer
   point, under the joiner's own meta — the sponsor's primary and
   server set, but none of the sponsor's installation attempt, whose
   vulnerable record the sponsor still holds valid in its primary. *)
let test_joiner_logs_sponsor_checkpoint () =
  let procs = Procedure.builtins () and db = Database.create () in
  let dedup = Dedup.create ~window:4 () in
  let apply batch =
    Array.iter
      (fun (a : Action.t) ->
        Dedup.record dedup ~client:a.client ~seq:a.req_seq ~ack:a.req_ack
          (Executor.execute ~procs db a))
      batch
  in
  let _, _, sponsor, settle = reg_prim_engine ~on_green:apply () in
  List.iteri
    (fun i key ->
      Engine.submit sponsor ~client:3 ~semantics:Action.Strict ~size:200
        ~req_seq:(i + 1) ~req_ack:i
        ~kind:(Action.Update [ Op.Set (key, Value.Int i) ])
        ~on_created:ignore)
    [ "a"; "b"; "c" ];
  settle ();
  Alcotest.(check int) "the sponsor greened its history" 3
    (Engine.green_count sponsor);
  Alcotest.(check bool) "the sponsor's vulnerable record is valid" true
    (Engine.vulnerable sponsor).Types.v_valid;
  let shipped =
    Engine.checkpoint_record sponsor ~dedup:(Dedup.snapshot dedup)
      (Database.snapshot db)
  in
  let sim, persist = make_persist () in
  let silent =
    {
      Engine.on_green = ignore;
      on_red = ignore;
      on_transfer_request = (fun ~joiner:_ -> ());
      on_self_leave = ignore;
      on_resync = ignore;
      send = (fun ~service:_ ~size:_ _ -> ());
    }
  in
  ignore
    (Engine.create_from_snapshot ~quorum:Quorum.Dynamic_linear
       ~checkpoint:shipped ~action_floor:0 ~sim ~node:1 ~persist
       ~callbacks:silent ());
  let logged =
    match
      Persist.find_newest persist (function
        | Persist.Checkpoint c -> Some c
        | _ -> None)
    with
    | Some c -> c
    | None -> Alcotest.fail "the joiner logged no checkpoint"
  in
  Alcotest.(check int) "green count" (Engine.green_count sponsor)
    logged.c_green_count;
  Alcotest.(check (option (of_pp Action.Id.pp))) "green line"
    (Engine.green_line sponsor) logged.c_green_line;
  Alcotest.(check (list (pair int int))) "green cut"
    (Node_id.Map.bindings (Engine.green_cut_map sponsor))
    (Node_id.Map.bindings logged.c_green_cut);
  Alcotest.(check int) "snapshot digest" (Database.digest db)
    (Database.digest (Database.of_snapshot logged.c_snapshot));
  Alcotest.(check bool) "dedup snapshot" true
    (logged.c_dedup = Dedup.snapshot dedup);
  let m = logged.c_meta and prim = Engine.prim_component sponsor in
  Alcotest.(check (pair int int)) "the sponsor's primary"
    (prim.prim_index, prim.prim_attempt)
    (m.m_prim.prim_index, m.m_prim.prim_attempt);
  Alcotest.(check bool) "the sponsor's primary members" true
    (Node_id.Set.equal prim.prim_servers m.m_prim.prim_servers);
  Alcotest.(check bool) "the sponsor's server set" true
    (Node_id.Set.equal (Engine.known_servers sponsor) m.m_servers);
  Alcotest.(check bool) "an invalid vulnerable record" false
    m.m_vulnerable.v_valid;
  Alcotest.(check bool) "an invalid, empty yellow set" true
    ((not m.m_yellow.y_valid) && m.m_yellow.y_set = []);
  Alcotest.(check int) "attempt 0" 0 m.m_attempt

(* Marking an action yellow costs the same whether it is the first or
   the 256th of its transitional configuration: the yellow set is not
   copied per action.  The medians of the first and last 32 deliveries'
   words must agree (a copied set adds three words per action already
   yellow), and the set must read back in delivery order. *)
let test_yellow_words_flat () =
  let _sim, _persist, e, _settle = reg_prim_engine () in
  let conf = { Repro_gcs.Conf_id.coord = 0; counter = 1_000_000 } in
  Engine.handle_event e
    (Repro_gcs.Endpoint.Trans_conf { id = conf; members = Node_id.Set.singleton 0 });
  let n = 256 in
  let events =
    Array.init n (fun i ->
        Repro_gcs.Endpoint.Deliver
          {
            sender = 1;
            payload =
              Types.Action_batch [ Action.make ~server:1 ~index:(i + 1) (Action.Update []) ];
            conf;
            seq = i + 1;
            in_regular = false;
          })
  in
  let words =
    Array.map
      (fun ev ->
        let before = Gc.minor_words () in
        Engine.handle_event e ev;
        Gc.minor_words () -. before)
      events
  in
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let first = median (Array.sub words 0 32) and last = median (Array.sub words (n - 32) 32) in
  if last > first +. 2. then
    Alcotest.failf "yellow words grow with the set: %.0f for the first 32, %.0f for the last 32"
      first last;
  Alcotest.(check (list int)) "the yellow set in delivery order"
    (List.init n (fun i -> i + 1))
    (List.map (fun id -> id.Action.Id.index) (Engine.yellow e).Types.y_set)


(* One copy of a burst's greens serves both consumers: the green log
   frame holds the very array [on_green] applies. *)
let test_green_frame_is_applied_batch () =
  let applied = ref [] in
  let sim, persist, e, settle =
    reg_prim_engine ~on_green:(fun batch -> applied := batch :: !applied) ()
  in
  Engine.submit e ~client:0 ~semantics:Action.Strict ~size:200 ~req_seq:0
    ~req_ack:0 ~kind:(Action.Update []) ~on_created:ignore;
  ignore (Repro_sim.Engine.drain sim);
  settle ();
  let frame =
    Persist.find_newest persist (function
      | Persist.Green actions -> Some actions
      | _ -> None)
  in
  match (frame, !applied) with
  | Some frame, batch :: _ ->
    Alcotest.(check int) "one green" 1 (Array.length batch);
    Alcotest.(check bool) "the frame is the applied array" true (frame == batch)
  | _ -> Alcotest.fail "no green frame or no applied batch"

(* The delivery entry builds no event, unless an input sink is attached
   (the [Check.Spec] feed): the sink then sees every delivery as the
   [Deliver] the endpoint's fields make, the payload itself included. *)
let test_input_sink_sees_deliveries () =
  let _, _, e, _ = reg_prim_engine () in
  let seen = ref [] in
  Engine.set_audit e ignore ~input:(fun ev -> seen := ev :: !seen);
  let conf = { Repro_gcs.Conf_id.coord = 0; counter = 7 } in
  let payload =
    Types.Action_batch [ Action.make ~server:2 ~index:1 (Action.Update []) ]
  in
  Engine.handle_delivery e ~sender:2 ~conf ~seq:41 ~in_regular:true payload;
  (match !seen with
  | [ Repro_gcs.Endpoint.Deliver d ] ->
    Alcotest.(check int) "sender" 2 d.sender;
    Alcotest.(check bool) "conf" true (Repro_gcs.Conf_id.equal conf d.conf);
    Alcotest.(check int) "seq" 41 d.seq;
    Alcotest.(check bool) "in_regular" true d.in_regular;
    Alcotest.(check bool) "the payload itself" true (d.payload == payload)
  | evs -> Alcotest.failf "%d input events, expected one Deliver" (List.length evs));
  Alcotest.(check int) "the action was handled" 1 (Engine.red_cut e 2)

(* Across a replicated run, every replica's sink sees each ordered
   message once, at the same (conf, seq), from the same sender, with the
   same payload value: the endpoint's delivery fields reach the feed
   unchanged. *)
let test_replica_sinks_agree () =
  let w = make_world 3 in
  let feeds = Hashtbl.create 3 in
  List.iter
    (fun r ->
      let feed = ref [] in
      Hashtbl.replace feeds (Replica.node r) feed;
      Replica.set_audit r ignore ~input:(function
        | Repro_gcs.Endpoint.Deliver d when d.in_regular ->
          feed := (d.conf, d.seq, d.sender, d.payload) :: !feed
        | _ -> ()))
    (all_replicas w);
  start_all w;
  run_sim w ~ms:1_000.;
  for i = 1 to 20 do
    set_kv' (rep w (i mod 3)) "k" i
  done;
  run_sim w ~ms:1_000.;
  let feed n = List.rev !(Hashtbl.find feeds n) in
  let key (c, s, _, _) = (c, s) in
  let find n k = List.find_opt (fun d -> key d = k) (feed n) in
  Alcotest.(check bool) "messages delivered" true (List.length (feed 0) >= 20);
  List.iter
    (fun n ->
      let keys = List.map key (feed n) in
      Alcotest.(check int) "each (conf, seq) once" (List.length keys)
        (List.length (List.sort_uniq compare keys));
      List.iter
        (fun ((_, _, sender, payload) as d) ->
          List.iter
            (fun m ->
              match find m (key d) with
              | Some (_, _, sender', payload') ->
                Alcotest.(check int) "same sender" sender sender';
                Alcotest.(check bool) "same payload" true (payload == payload')
              | None -> ())
            [ 0; 1; 2 ])
        (feed n))
    [ 0; 1; 2 ]

(* Steady-state delivery at one engine: a burst of actions, each marked
   red and green, logged in one red and one green frame and applied as
   one batch.  What is left per action is its slot in the burst's red
   frame and in its green frame, which is also the apply batch; no box
   per logged mark, body-table entry, event record, list cell or option
   box.  A box per mark alone would add 4 words. *)
let test_delivery_burst_words () =
  let applied = ref 0 in
  let _, _, e, _ =
    reg_prim_engine ~on_green:(fun a -> applied := !applied + Array.length a) ()
  in
  let conf = { Repro_gcs.Conf_id.coord = 0; counter = 7 } in
  let total = 4_096 and burst = 32 in
  let payloads =
    Array.init (total + 1) (fun i ->
        Types.Action_batch [ Action.make ~server:1 ~index:i (Action.Update []) ])
  in
  let deliver_burst first =
    Engine.begin_burst e;
    for i = first to first + burst - 1 do
      Engine.handle_delivery e ~sender:1 ~conf ~seq:i ~in_regular:true payloads.(i)
    done;
    Engine.end_burst e
  in
  (* Warm-up: the tables and mark buffers grow to their working size. *)
  let warm = total / 2 in
  let rec run first stop =
    if first + burst - 1 <= stop then begin
      deliver_burst first;
      run (first + burst) stop
    end
  in
  run 1 warm;
  let before = Gc.minor_words () in
  run (warm + 1) total;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every action applied" total !applied;
  let per_action = words /. float_of_int (total - warm) in
  Printf.printf "words per delivered action: %.2f\n" per_action;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per delivered action (at most 4)" per_action)
    true (per_action <= 4.)

(* The ongoing queue against a plain-list model, oldest first: own
   actions join it when submitted and leave it when delivered back —
   newly accepted, or as a duplicate after a recovery re-injected them
   as red.  The post-recovery duplicates arrive out of order, so one of
   them is not at the head of the queue. *)
let test_ongoing_queue_matches_list_model () =
  let sim, persist, e, _ = reg_prim_engine ~own_via_model:false () in
  let conf = { Repro_gcs.Conf_id.coord = 0; counter = 7 } in
  let model = ref [] in
  let by_index = Hashtbl.create 16 in
  let indices e = List.map (fun a -> a.Action.id.index) (Engine.ongoing_actions e) in
  let check e what = Alcotest.(check (list int)) what !model (indices e) in
  let submit e n =
    for _ = 1 to n do
      Engine.submit e ~client:0 ~semantics:Action.Strict ~size:200 ~req_seq:0
        ~req_ack:0 ~kind:(Action.Update []) ~on_created:(fun id ->
          model := !model @ [ id.Action.Id.index ])
    done;
    List.iter
      (fun (a : Action.t) -> Hashtbl.replace by_index a.id.index a)
      (Engine.ongoing_actions e);
    ignore (Repro_sim.Engine.drain sim);
    check e (Printf.sprintf "after %d submits" n)
  in
  let deliver e ~in_regular i =
    Engine.handle_delivery e ~sender:0 ~conf ~seq:i ~in_regular
      (Types.Action_batch [ Hashtbl.find by_index i ]);
    model := List.filter (fun j -> j <> i) !model;
    check e (Printf.sprintf "after delivering %d" i)
  in
  submit e 3;
  deliver e ~in_regular:true 1;
  submit e 2;
  deliver e ~in_regular:true 2;
  deliver e ~in_regular:true 3;
  submit e 1;
  (* A recovery re-injects 4..6 as red and keeps them queued. *)
  let callbacks =
    {
      Engine.on_green = ignore;
      on_red = ignore;
      on_transfer_request = (fun ~joiner:_ -> ());
      on_self_leave = ignore;
      on_resync = ignore;
      send = (fun ~service:_ ~size:_ _ -> ());
    }
  in
  let e =
    Engine.recover ~quorum:Quorum.Dynamic_linear
      ~recovered:(Persist.recover ~self:0 persist)
      ~sim ~node:0 ~servers:(Node_id.Set.singleton 0) ~persist ~callbacks ()
  in
  check e "recovered";
  Alcotest.(check int) "re-injected as red" 6 (Engine.red_cut e 0);
  submit e 2;
  deliver e ~in_regular:false 5 (* a duplicate behind the head *);
  deliver e ~in_regular:false 4;
  submit e 1;
  deliver e ~in_regular:false 6;
  deliver e ~in_regular:false 7;
  deliver e ~in_regular:false 8;
  submit e 2;
  deliver e ~in_regular:false 9;
  deliver e ~in_regular:false 10;
  deliver e ~in_regular:false 11;
  Alcotest.(check (list int)) "all delivered" [] (indices e)

(* An own action's path from submit to delivery allocates the same
   words however many own actions are in flight: the ongoing queue
   appends and pops in O(1).  Each round submits one action and delivers
   the oldest back, so the in-flight count stays put. *)
let test_own_action_words_flat () =
  let rounds = 1_024 in
  let words_per_action in_flight =
    let sim, _, e, _ = reg_prim_engine ~own_via_model:false () in
    let conf = { Repro_gcs.Conf_id.coord = 0; counter = 7 } in
    let warm = 256 in
    (* Delivered copies of the own actions, built before measuring. *)
    let payloads =
      Array.init (warm + rounds + 1) (fun i ->
          Types.Action_batch [ Action.make ~server:0 ~index:i (Action.Update []) ])
    in
    let submit () =
      Engine.submit e ~client:0 ~semantics:Action.Strict ~size:200 ~req_seq:0
        ~req_ack:0 ~kind:(Action.Update []) ~on_created:ignore;
      ignore (Repro_sim.Engine.drain sim)
    in
    let round i =
      submit ();
      Engine.handle_delivery e ~sender:0 ~conf ~seq:i ~in_regular:true
        payloads.(i)
    in
    for _ = 1 to in_flight do
      submit ()
    done;
    for i = 1 to warm do
      round i
    done;
    let before = Gc.minor_words () in
    for i = warm + 1 to warm + rounds do
      round i
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int)
      (Printf.sprintf "%d own actions in flight" in_flight)
      in_flight
      (List.length (Engine.ongoing_actions e));
    words /. float_of_int rounds
  in
  let one = words_per_action 1 and many = words_per_action 64 in
  Printf.printf "words per own action: %.2f (1 in flight), %.2f (64 in flight)\n"
    one many;
  (* Equal up to where the window cuts the queue's reversals: each
     entry is reversed once, in runs as long as the queue is deep, so
     the two figures may differ by one 65-entry reversal (3 words an
     entry) over the window.  Copying the queue per action would add
     hundreds of words. *)
  let slack = 3. *. 65. /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "equal with 1 and 64 in flight (%.2f vs %.2f)" one many)
    true
    (Float.abs (one -. many) <= slack)

let () =
  Alcotest.run "core"
    [
      ( "steady-state",
        [
          Alcotest.test_case "primary installs" `Quick test_primary_installs;
          Alcotest.test_case "actions green everywhere" `Quick
            test_actions_turn_green_everywhere;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "majority keeps primary" `Quick
            test_partition_majority_keeps_primary;
          Alcotest.test_case "minority stays red, merge converges" `Quick
            test_minority_actions_stay_red;
          Alcotest.test_case "no primary without quorum" `Quick
            test_no_primary_without_quorum;
          Alcotest.test_case "cascaded partitions" `Quick
            test_cascaded_partitions_single_primary;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash and recover" `Quick test_crash_recover_rejoins;
          Alcotest.test_case "total crash" `Quick
            test_total_crash_blocks_until_full_exchange;
          Alcotest.test_case "rebuilt engines keep quorum policy" `Quick
            test_rebuilt_engines_keep_quorum_policy;
          Alcotest.test_case "crashed engine stays silent" `Quick
            test_crashed_engine_stays_silent;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "weak and dirty queries" `Quick
            test_weak_and_dirty_queries;
          Alcotest.test_case "commutative responds early" `Quick
            test_commutative_semantics_respond_early;
          Alcotest.test_case "interactive conflict aborts once" `Quick
            test_interactive_conflict_aborts_everywhere;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "join new replica" `Quick test_join_new_replica;
          Alcotest.test_case "leave replica" `Quick test_leave_replica;
          Alcotest.test_case "joiner logs the sponsor's checkpoint" `Quick
            test_joiner_logs_sponsor_checkpoint;
        ] );
      ( "features",
        [
          Alcotest.test_case "local query session consistency" `Quick
            test_local_query_session_consistency;
          Alcotest.test_case "engine stats" `Quick test_engine_stats_track_membership;
        ] );
      ( "durability",
        [
          Alcotest.test_case "checkpoint compacts the log" `Quick
            test_checkpoint_compacts_log;
          Alcotest.test_case "joiner crash keeps inherited state" `Quick
            test_joiner_crash_recovers_inherited_state;
          Alcotest.test_case "gc respects laggards" `Quick test_gc_respects_laggards;
          Alcotest.test_case "periodic checkpoints bound the log" `Quick
            test_periodic_checkpoint_bounds_log;
        ] );
      ( "units",
        [
          Alcotest.test_case "quorum majority" `Quick test_quorum_majority;
          Alcotest.test_case "quorum policies" `Quick test_quorum_policies;
          Alcotest.test_case "quorum ties" `Quick test_quorum_ties;
          Alcotest.test_case "quorum of empty last primary" `Quick
            test_quorum_empty_prev;
          Alcotest.test_case "vulnerable invalidation (A.7 steps 3-4)" `Quick
            test_knowledge_vulnerable_invalidation;
          QCheck_alcotest.to_alcotest prop_quorum_unique;
          Alcotest.test_case "action queue basics" `Quick test_action_queue_basics;
          Alcotest.test_case "action queue floor" `Quick test_action_queue_floor;
          Alcotest.test_case "action queue discard" `Quick test_action_queue_discard;
          Alcotest.test_case "torn batch keeps FIFO gap-free" `Quick
            test_persist_torn_batch_fifo_gap_free;
          QCheck_alcotest.to_alcotest prop_persist_recovery_invariants;
          Alcotest.test_case "knowledge exchange at 200 members" `Quick
            test_knowledge_exchange_200_members;
          QCheck_alcotest.to_alcotest prop_knowledge_green_plan_covers;
          QCheck_alcotest.to_alcotest prop_knowledge_red_duties_cover;
          Alcotest.test_case "a submission is one frame and one batch" `Quick
            test_submission_is_one_frame_one_batch;
          Alcotest.test_case "action queue finds red bodies only" `Quick
            test_action_queue_find_red_only;
          Alcotest.test_case "action queue keeps a green once" `Quick
            test_action_queue_green_retention;
          QCheck_alcotest.to_alcotest prop_persist_matches_model;
        ] );
      ( "dedup",
        [
          QCheck_alcotest.to_alcotest prop_dedup_ring_matches_list_model;
          Alcotest.test_case "snapshot round trip" `Quick
            test_dedup_snapshot_roundtrip;
          Alcotest.test_case "allocates nothing" `Quick
            test_dedup_allocates_nothing;
          Alcotest.test_case "action-id table allocates nothing" `Quick
            test_id_table_allocates_nothing;
        ] );
      ( "green-state",
        [
          QCheck_alcotest.to_alcotest prop_green_cut_matches_id_set;
          Alcotest.test_case "stranded member resyncs by transfer" `Quick
            test_stranded_member_resyncs;
          Alcotest.test_case "input sink sees deliveries" `Quick
            test_input_sink_sees_deliveries;
          Alcotest.test_case "replica input sinks agree" `Quick
            test_replica_sinks_agree;
          Alcotest.test_case "delivery burst words per action" `Quick
            test_delivery_burst_words;
          Alcotest.test_case "a green skips the red region" `Quick
            test_green_skips_red_region;
          Alcotest.test_case "yellow words flat in the yellow set" `Quick
            test_yellow_words_flat;
          Alcotest.test_case "the green frame is the applied batch" `Quick
            test_green_frame_is_applied_batch;
        ] );
      ( "ongoing",
        [
          Alcotest.test_case "matches a list model" `Quick
            test_ongoing_queue_matches_list_model;
          Alcotest.test_case "own-action words flat in queue depth" `Quick
            test_own_action_words_flat;
        ] );
    ]
