(* Integration scenarios: the hard corners of the paper's algorithm —
   view changes interrupting the Construct phase (the No/Un paths),
   crashes while vulnerable, joins under partitions, sponsor failure
   mid-transfer, staggered recovery after a total crash. *)

open Repro_net
open Repro_db
open Repro_core
open Repro_harness

module Check = Repro_check

let run = World.run

(* Every scenario runs under a repcheck invariant monitor (the online
   checker of the paper's safety lemmas): zero violations across the
   whole run is part of each test's assertion. *)
let make_world ~seed ~n () =
  let w = World.make ~seed ~n () in
  let mon = World.attach_monitor w in
  (w, mon)

let repcheck_ok mon =
  Check.Monitor.check_now mon;
  Alcotest.(check bool) "monitor observed the run" true
    (Check.Monitor.observations mon > 0);
  if not (Check.Monitor.ok mon) then
    Alcotest.failf "%s" (Format.asprintf "%t" (Check.Monitor.report mon))

(* Step the world in small increments until a predicate holds. *)
let run_until ?(step_ms = 2.) ?(max_ms = 20_000.) w predicate =
  let steps = int_of_float (max_ms /. step_ms) in
  let rec go i =
    if predicate () then true
    else if i >= steps then false
    else begin
      run w ~ms:step_ms;
      go (i + 1)
    end
  in
  go 0

let submit_ok w node key v = World.submit_update w ~node ~key v

let all_consistent ?(converged = false) w =
  match Consistency.check_all ~converged (World.replicas w) with
  | [] -> ()
  | violations ->
    Alcotest.failf "violations: %s"
      (String.concat "; "
         (List.map
            (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
            violations))

(* ------------------------------------------------------------------ *)

(* Cut the network at the exact moment a replica is constructing the new
   primary component: the paper's No/Un states.  Whatever interleaving
   results, safety must hold and the system must re-converge. *)
let test_partition_during_construct () =
  let w, mon = make_world ~seed:33 ~n:5 () in
  run w ~ms:1000.;
  (* Force an exchange by a partition+merge, and catch Construct. *)
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run w ~ms:1500.;
  Topology.merge_all (World.topology w);
  let in_construct () =
    List.exists
      (fun r -> Replica.state r = Types.Construct)
      (World.replicas w)
  in
  let caught = run_until ~step_ms:0.5 ~max_ms:5_000. w in_construct in
  if caught then begin
    (* Cut right through the installation attempt.  The majority may
       legitimately *block* here: if the detached member might have
       received every CPC safely and installed, the others stay
       vulnerable until it returns (the algorithm's safety bias) — so we
       assert only safety, and full recovery after the heal below. *)
    Topology.partition (World.topology w) [ [ 0; 1; 2; 3 ]; [ 4 ] ];
    run w ~ms:2000.;
    all_consistent w
  end;
  Topology.merge_all (World.topology w);
  run w ~ms:4000.;
  all_consistent ~converged:true w;
  Alcotest.(check bool) "everyone back in primary" true
    (List.for_all Replica.in_primary (World.replicas w));
  repcheck_ok mon

(* Crash a server in the middle of the Create-Primary-Component round:
   it is vulnerable on disk.  On recovery it must not claim knowledge it
   does not have, and the system must converge. *)
let test_crash_while_vulnerable () =
  let w, mon = make_world ~seed:44 ~n:5 () in
  run w ~ms:1000.;
  submit_ok w 0 "pre" 1;
  run w ~ms:500.;
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run w ~ms:1500.;
  Topology.merge_all (World.topology w);
  let victim = ref None in
  let in_construct () =
    match
      List.find_opt
        (fun r -> Replica.state r = Types.Construct)
        (World.replicas w)
    with
    | Some r ->
      victim := Some r;
      true
    | None -> false
  in
  let caught = run_until ~step_ms:0.5 ~max_ms:5_000. w in_construct in
  (match (caught, !victim) with
  | true, Some r ->
    Alcotest.(check bool) "vulnerable while constructing" true
      (Engine.vulnerable (Replica.engine r)).Types.v_valid;
    Replica.crash r;
    run w ~ms:3000.;
    all_consistent w;
    Replica.recover r;
    run w ~ms:4000.;
    all_consistent ~converged:true w;
    Alcotest.(check bool) "recovered and in primary" true (Replica.in_primary r)
  | _ ->
    (* Timing did not produce a Construct window: still verify health. *)
    run w ~ms:4000.;
    all_consistent ~converged:true w);
  repcheck_ok mon

let test_total_crash_staggered_recovery () =
  let w, mon = make_world ~seed:55 ~n:4 () in
  run w ~ms:1000.;
  for i = 1 to 8 do
    submit_ok w (i mod 4) (Printf.sprintf "k%d" i) i
  done;
  run w ~ms:800.;
  List.iter Replica.crash (World.replicas w);
  run w ~ms:500.;
  (* Recover one at a time with gaps: singletons and pairs must never
     form a primary while members of the last one are still down and
     potentially more knowledgeable. *)
  Replica.recover (World.replica w 0);
  run w ~ms:1500.;
  Alcotest.(check bool) "lone survivor holds no primary" false
    (Replica.in_primary (World.replica w 0));
  Replica.recover (World.replica w 1);
  run w ~ms:1500.;
  Replica.recover (World.replica w 2);
  Replica.recover (World.replica w 3);
  run w ~ms:4000.;
  all_consistent ~converged:true w;
  Alcotest.(check bool) "primary re-formed with everyone" true
    (List.for_all Replica.in_primary (World.replicas w));
  Alcotest.(check bool) "durable actions survived" true
    (Engine.green_count (Replica.engine (World.replica w 0)) >= 8);
  repcheck_ok mon

(* A new replica whose sponsor sits in a minority component: the
   PERSISTENT_JOIN can only turn green after the heal — the joiner waits
   and then completes (the paper's "accepted into the system without
   ever being connected to the primary component" flexibility). *)
let test_join_via_minority_sponsor () =
  let w, mon = make_world ~seed:66 ~n:5 () in
  run w ~ms:1000.;
  submit_ok w 0 "base" 1;
  run w ~ms:500.;
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run w ~ms:1500.;
  (* Node 9 appears inside the minority component, sponsored by 4. *)
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  let joiner = World.add_joiner w ~node:9 ~sponsors:[ 4 ] in
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4; 9 ] ];
  run w ~ms:3000.;
  Alcotest.(check bool) "join blocked while sponsor lacks the primary" false
    (Replica.is_ready joiner);
  Topology.merge_all (World.topology w);
  run w ~ms:6000.;
  Alcotest.(check bool) "joiner completed after the heal" true
    (Replica.is_ready joiner);
  all_consistent ~converged:true w;
  Alcotest.(check bool) "joiner known cluster-wide" true
    (List.for_all
       (fun r -> Node_id.Set.mem 9 (Engine.known_servers (Replica.engine r)))
       (World.replicas w));
  repcheck_ok mon

let test_sponsor_crash_mid_join () =
  let w, mon = make_world ~seed:77 ~n:3 () in
  run w ~ms:1000.;
  for i = 1 to 10 do
    submit_ok w (i mod 3) (Printf.sprintf "k%d" i) i
  done;
  run w ~ms:500.;
  (* The first sponsor dies immediately; the joiner's retry loop must
     fall through to the second sponsor. *)
  Replica.crash (World.replica w 1);
  let joiner = World.add_joiner w ~node:8 ~sponsors:[ 1; 2 ] in
  run w ~ms:6000.;
  Alcotest.(check bool) "joined via the backup sponsor" true
    (Replica.is_ready joiner);
  Replica.recover (World.replica w 1);
  run w ~ms:3000.;
  all_consistent ~converged:true w;
  repcheck_ok mon

(* A large database is transferred in chunks; the representative dies
   mid-stream and the joiner resumes from a *different* sponsor without
   re-fetching the chunks it already holds (determinism makes snapshots
   at the same green position identical across replicas). *)
let test_chunked_transfer_resumes_across_sponsors () =
  let w, mon = make_world ~seed:123 ~n:3 () in
  run w ~ms:1000.;
  (* ~3 MB of state: several dozen 64 KiB transfer chunks. *)
  let blob = String.make 4096 'x' in
  for i = 1 to 700 do
    Replica.submit (World.replica w (i mod 3))
      (Action.Update [ Op.Set (Printf.sprintf "blob%d" i, Value.Text blob) ])
      ~on_response:(fun _ -> ())
  done;
  run w ~ms:3000.;
  let joiner = World.add_joiner w ~node:9 ~sponsors:[ 1; 2 ] in
  (* Let sponsor 1 order the join and start streaming, then kill it while
     chunks are still in flight. *)
  (* Let most of the stream through before the crash so the resumed tail
     is clearly smaller than a restart. *)
  let sponsor_started () = Replica.transfer_chunks_sent (World.replica w 1) > 30 in
  Alcotest.(check bool) "sponsor began streaming" true
    (run_until ~step_ms:1. w sponsor_started);
  Alcotest.(check bool) "transfer incomplete at crash" false
    (Replica.is_ready joiner);
  Replica.crash (World.replica w 1);
  run w ~ms:4000.;
  Alcotest.(check bool) "joiner completed via backup sponsor" true
    (Replica.is_ready joiner);
  (* The backup served only the tail: strictly fewer chunks than the
     whole snapshot needs. *)
  let s1 = Replica.transfer_chunks_sent (World.replica w 1)
  and s2 = Replica.transfer_chunks_sent (World.replica w 2) in
  Alcotest.(check bool)
    (Printf.sprintf "resume skipped received chunks (s1=%d s2=%d)" s1 s2)
    true
    (s2 < s1 + s2 && s2 > 0 && s1 > 3);
  Alcotest.(check bool) "backup sent fewer than a full restart" true (s2 < s1);
  Replica.recover (World.replica w 1);
  run w ~ms:3000.;
  all_consistent ~converged:true w;
  repcheck_ok mon

let test_repeated_partitions_converge () =
  let w, mon = make_world ~seed:88 ~n:5 () in
  run w ~ms:1000.;
  let key = ref 0 in
  let churn groups =
    Topology.partition (World.topology w) groups;
    for _ = 1 to 5 do
      incr key;
      submit_ok w (!key mod 5) (Printf.sprintf "c%d" !key) !key
    done;
    run w ~ms:1200.;
    all_consistent w
  in
  churn [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  churn [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  churn [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ];
  churn [ [ 0; 1; 2; 3; 4 ] ];
  World.heal_and_settle ~ms:6000. w;
  all_consistent ~converged:true w;
  Alcotest.(check bool) "every submitted action eventually committed" true
    (Engine.green_count (Replica.engine (World.replica w 0)) >= 20);
  repcheck_ok mon

let test_join_then_leave_then_partition () =
  let w, mon = make_world ~seed:99 ~n:3 () in
  run w ~ms:1000.;
  submit_ok w 0 "a" 1;
  run w ~ms:300.;
  let joiner = World.add_joiner w ~node:6 ~sponsors:[ 0 ] in
  run w ~ms:4000.;
  Alcotest.(check bool) "joined" true (Replica.is_ready joiner);
  (* Old member leaves; the joiner keeps the cluster at quorum strength. *)
  Replica.leave (World.replica w 2);
  run w ~ms:2000.;
  Topology.partition (World.topology w) [ [ 0; 6 ]; [ 1 ]; [ 2 ] ];
  run w ~ms:1500.;
  Alcotest.(check bool) "pair with tie-break holds primary" true
    (Replica.in_primary (World.replica w 0) && Replica.in_primary joiner);
  Topology.merge_all (World.topology w);
  run w ~ms:3000.;
  all_consistent w;
  repcheck_ok mon

let test_fifo_order_per_client () =
  let w, mon = make_world ~seed:111 ~n:3 () in
  run w ~ms:1000.;
  (* Burst of sequential actions from one replica: FIFO must hold in the
     green order. *)
  for i = 1 to 20 do
    submit_ok w 0 "counter" i
  done;
  run w ~ms:1500.;
  let greens = Engine.green_actions (Replica.engine (World.replica w 1)) in
  let indices_of_0 =
    List.filter_map
      (fun a ->
        if Node_id.equal a.Action.id.Action.Id.server 0 then
          Some a.Action.id.Action.Id.index
        else None)
      greens
  in
  Alcotest.(check (list int)) "fifo per creator" (List.init 20 (fun i -> i + 1))
    indices_of_0;
  (* The last write wins in the database. *)
  (match Replica.weak_query (World.replica w 2) [ "counter" ] with
  | [ (_, Some (Value.Int 20)) ] -> ()
  | _ -> Alcotest.fail "final value must be the last write");
  repcheck_ok mon

(* A submission batch spanning a checkpoint: with a tight checkpoint
   cadence, one burst of submissions is framed together while the
   apply side cuts a checkpoint (and compacts the log) in the middle
   of it.  The framing must not tear: the submitter crashes afterwards,
   recovers from the checkpointed log, and everything converges. *)
let test_batch_spans_checkpoint () =
  let w = World.make ~seed:58 ~checkpoint_every:(Some 8) ~n:3 () in
  let mon = World.attach_monitor w in
  run w ~ms:1000.;
  (* 30 updates buffered during an exchange go out as one batch, and
     with a checkpoint every 8 greens the burst straddles several
     checkpoint boundaries. *)
  Burst.submit_during_exchange w ~node:0 ~count:30 ~key:(fun i ->
      Printf.sprintf "k%d" (i mod 7));
  run w ~ms:3000.;
  Topology.merge_all (World.topology w);
  run w ~ms:3000.;
  let submitter = World.replica w 0 in
  let stats = Engine.stats (Replica.engine submitter) in
  Alcotest.(check bool) "submissions were actually batched" true
    (stats.Engine.s_batched_submissions > stats.Engine.s_submit_batches);
  Alcotest.(check int) "all 30 applied everywhere" 30
    (List.fold_left
       (fun acc r -> min acc (Replica.greens_applied r))
       max_int (World.replicas w));
  (* Checkpoints compacted the log: nowhere near 30 actions x ~2
     records each. *)
  Alcotest.(check bool) "checkpointing compacted the log" true
    (Replica.log_entries submitter < 40);
  Replica.crash submitter;
  run w ~ms:500.;
  World.heal_and_settle ~ms:5000. w;
  all_consistent ~converged:true w;
  repcheck_ok mon

(* Two whole engine worlds in one process must be invisible to each
   other: tenant A registers a custom stored procedure on its replicas
   only, and tenant B — running concurrently in the same process — must
   abort the same action.  This is the multi-tenant isolation the
   instance-scoped procedure registry (and the ambient-state analysis
   guarding it) exists for; with the old process-wide registry, B would
   observe A's registration and commit. *)
let test_two_tenants_isolated () =
  let wa, mon_a = make_world ~seed:5 ~n:3 () in
  let wb, mon_b = make_world ~seed:6 ~n:3 () in
  List.iter
    (fun r ->
      Replica.register_procedure r "tenant_only" (fun _db _args ->
          { Procedure.updates = [ Op.Set ("mark", Value.Int 1) ];
            output = Value.Int 7 }))
    (World.replicas wa);
  run wa ~ms:2000.;
  run wb ~ms:2000.;
  let call w =
    let got = ref None in
    Replica.submit (World.replica w 0)
      (Action.Active { proc = "tenant_only"; args = [] })
      ~on_response:(fun r -> got := Some r);
    let answered = run_until ~max_ms:10_000. w (fun () -> !got <> None) in
    Alcotest.(check bool) "call answered" true answered;
    !got
  in
  (match call wa with
  | Some (Action.Procedure_output (Value.Int 7)) -> ()
  | r ->
    Alcotest.failf "tenant A should commit its own procedure, got %s"
      (match r with
      | Some r -> Format.asprintf "%a" Action.pp_response r
      | None -> "no response"))
  ;
  (match call wb with
  | Some Action.Aborted -> ()
  | r ->
    Alcotest.failf "tenant B must not see A's procedure, got %s"
      (match r with
      | Some r -> Format.asprintf "%a" Action.pp_response r
      | None -> "no response"));
  (match Replica.weak_query (World.replica wa 1) [ "mark" ] with
  | [ ("mark", Some (Value.Int 1)) ] -> ()
  | _ -> Alcotest.fail "tenant A replicas should hold mark=1");
  (match Replica.weak_query (World.replica wb 1) [ "mark" ] with
  | [ ("mark", None) ] -> ()
  | _ -> Alcotest.fail "tenant B database must be untouched");
  repcheck_ok mon_a;
  repcheck_ok mon_b

(* Runtime footprint validation end to end (paper §6): the guard rides
   every replica's procedure hook, so a declared footprint is checked
   against the actual key accesses of every replicated execution — and
   a declaration that lies about its key space is caught on each
   replica that applies the procedure. *)
let test_procedure_guard () =
  let w, mon = make_world ~seed:11 ~n:3 () in
  let guard = World.attach_procedure_guard w in
  run w ~ms:2_000.;
  (* Honest traffic against the builtins' declared footprints. *)
  World.submit_procedure w ~node:0 ~proc:"restock"
    [ Value.Text "beans"; Value.Int 4 ];
  World.submit_procedure w ~node:1 ~proc:"transfer"
    [ Value.Text "beans"; Value.Text "rice"; Value.Int 1 ];
  run w ~ms:3_000.;
  Alcotest.(check bool) "each replica's executions were checked" true
    (Check.Procguard.checked guard >= 6);
  Check.Procguard.assert_ok guard;
  (* A lying declaration: claims {param 0} but also writes a constant
     key.  Every replica that applies it must report the violation. *)
  List.iter
    (fun r ->
      Replica.register_procedure r "sneaky"
        ~footprint:
          { Procedure.reads = [ Procedure.Kparam 0 ];
            writes = [ Procedure.Kparam 0 ] }
        (fun _db args ->
          match args with
          | [ Value.Text k ] ->
            {
              Procedure.updates =
                [ Op.Set (k, Value.Int 1); Op.Set ("shadow", Value.Int 1) ];
              output = Value.Int 1;
            }
          | _ -> { Procedure.updates = []; output = Value.Int 0 }))
    (World.replicas w);
  World.submit_procedure w ~node:2 ~proc:"sneaky" [ Value.Text "front" ];
  run w ~ms:3_000.;
  (match Check.Procguard.violations guard with
  | [] -> Alcotest.fail "undeclared write must be caught"
  | vs ->
    Alcotest.(check bool) "every replica reports it" true (List.length vs >= 3);
    List.iter
      (fun v ->
        Alcotest.(check string) "procedure" "sneaky" v.Check.Procguard.v_proc;
        Alcotest.(check string) "offending key" "shadow" v.Check.Procguard.v_key;
        Alcotest.(check bool) "kind is write" true
          (v.Check.Procguard.v_kind = Check.Procguard.Write))
      vs);
  repcheck_ok mon

let () =
  Alcotest.run "integration"
    [
      ( "membership-corners",
        [
          Alcotest.test_case "partition during construct" `Slow
            test_partition_during_construct;
          Alcotest.test_case "crash while vulnerable" `Slow
            test_crash_while_vulnerable;
          Alcotest.test_case "total crash, staggered recovery" `Slow
            test_total_crash_staggered_recovery;
        ] );
      ( "dynamic-membership",
        [
          Alcotest.test_case "join via minority sponsor" `Slow
            test_join_via_minority_sponsor;
          Alcotest.test_case "sponsor crash mid-join" `Slow
            test_sponsor_crash_mid_join;
          Alcotest.test_case "chunked transfer resumes" `Slow
            test_chunked_transfer_resumes_across_sponsors;
          Alcotest.test_case "join, leave, partition" `Slow
            test_join_then_leave_then_partition;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "repeated partitions converge" `Slow
            test_repeated_partitions_converge;
          Alcotest.test_case "fifo per client" `Quick test_fifo_order_per_client;
          Alcotest.test_case "batch spans a checkpoint" `Quick
            test_batch_spans_checkpoint;
        ] );
      ( "multi-tenant",
        [
          Alcotest.test_case "two worlds, isolated procedures" `Quick
            test_two_tenants_isolated;
        ] );
      ( "procedures",
        [
          Alcotest.test_case "footprint guard end to end" `Quick
            test_procedure_guard;
        ] );
    ]
