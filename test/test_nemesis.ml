(* Recovery-under-storage-fault scenarios: each of the write-ahead
   log's damage verdicts driven end to end through a live cluster — a
   torn tail truncates and recovers in place, interior corruption past
   the trusted prefix salvages, head corruption forces an amnesiac
   rejoin by state transfer — plus the ongoing-queue re-proposal
   regression, the delayed-disk lost-acknowledged-write window
   (Figure 5(b)), and a pinned-seed nemesis campaign. *)

module Sim = Repro_sim
open Repro_storage
open Repro_db
open Repro_core
open Repro_harness

let nojitter = { Disk.default_forced with Disk.sync_jitter = 0. }

let quiet_disk ?(faults = Disk.no_faults) () =
  { nojitter with Disk.sync_latency = Sim.Time.of_ms 1.; faults }

let value_t = Alcotest.testable Value.pp Value.equal

let total_chunks w =
  List.fold_left (fun acc r -> acc + Replica.transfer_chunks_sent r) 0
    (World.replicas w)

let rendered o =
  List.map
    (Format.asprintf "%a" Repro_check.Snapshot.pp_violation)
    o.Nemesis.o_violations

let submit_settled w ~n =
  for i = 1 to n do
    World.submit_update w
      ~node:(i mod List.length (World.nodes w))
      ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:500.

(* Torn tail: the record in flight at crash time survives damaged.
   Recovery truncates it and proceeds in place — no state transfer. *)
let test_torn_tail_recovers_in_place () =
  let disk_config =
    quiet_disk ~faults:{ Disk.no_faults with torn_tail_on_crash = 1.0 } ()
  in
  let w = World.make ~disk_config ~n:3 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  submit_settled w ~n:6;
  let chunks_before = total_chunks w in
  let victim = World.replica w 2 in
  (* Appended but unsynced when the crash hits: with certain torn-tail
     injection the record survives, failing its checksum. *)
  Replica.submit victim (Action.Update [ Op.Set ("torn", Value.Int 9) ])
    ~on_response:(fun _ -> ());
  Replica.crash victim;
  Replica.recover victim;
  (match Replica.last_recovery victim with
  | Some (Persist.V_torn_tail n) ->
    Alcotest.(check bool) "at least the torn record dropped" true (n >= 1)
  | v ->
    Alcotest.failf "expected torn-tail verdict, got %s"
      (match v with
      | None -> "no recovery"
      | Some v -> Format.asprintf "%a" Persist.pp_verdict v));
  World.run w ~ms:3000.;
  Alcotest.(check int) "no state transfer" chunks_before (total_chunks w);
  World.assert_ok w ~ledgers:[]

(* Interior corruption beyond the trusted prefix (and not undermining a
   checkpoint): the prefix is salvaged, the lost suffix re-learned from
   peers — still no state transfer. *)
let test_interior_corruption_salvages () =
  let w =
    World.make ~disk_config:(quiet_disk ()) ~checkpoint_every:None ~n:3 ()
  in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  submit_settled w ~n:9;
  let chunks_before = total_chunks w in
  let victim = World.replica w 1 in
  Replica.crash victim;
  let len = Replica.log_entries victim in
  Alcotest.(check bool) "history in the log" true (len > 2);
  Alcotest.(check bool) "injection in range" true
    (Replica.corrupt_log victim ~nth:(len - 1));
  Replica.recover victim;
  (match Replica.last_recovery victim with
  | Some (Persist.V_salvaged n) ->
    Alcotest.(check bool) "dropped records counted" true (n >= 1)
  | v ->
    Alcotest.failf "expected salvaged verdict, got %s"
      (match v with
      | None -> "no recovery"
      | Some v -> Format.asprintf "%a" Persist.pp_verdict v));
  World.run w ~ms:3000.;
  Alcotest.(check int) "no state transfer" chunks_before (total_chunks w);
  World.assert_ok w ~ledgers:[]

(* Corruption at the log's head: nothing is trustworthy.  The victim
   must discard its state and re-enter through the §5.1 join/state-
   transfer path under a fresh incarnation, then converge. *)
let test_head_corruption_goes_amnesiac () =
  let w = World.make ~disk_config:(quiet_disk ()) ~n:5 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  submit_settled w ~n:10;
  let chunks_before = total_chunks w in
  let victim = World.replica w 4 in
  Replica.crash victim;
  Alcotest.(check bool) "injection in range" true
    (Replica.corrupt_log victim ~nth:0);
  Replica.recover victim;
  Alcotest.(check bool) "amnesia verdict" true
    (Replica.last_recovery victim = Some Persist.V_amnesia);
  Alcotest.(check int) "incarnation: crash + amnesiac rebirth" 2
    (Replica.incarnation victim);
  World.run w ~ms:8000.;
  Alcotest.(check bool) "victim re-entered the group" true
    (Replica.is_ready victim);
  Alcotest.(check bool) "state transfer served the rejoin" true
    (total_chunks w > chunks_before);
  Alcotest.(check (option (option value_t)))
    "transferred state holds the history" (Some (Some (Value.Int 10)))
    (List.assoc_opt "k10" (Replica.weak_query victim [ "k10" ]));
  World.assert_ok w ~ledgers:[]

(* A crashed replica's durable-but-undelivered action must survive as
   ongoing and be re-proposed after restart (CodeSegment A.13). *)
let test_ongoing_reproposed_after_restart () =
  let w = World.make ~disk_config:(quiet_disk ()) ~n:3 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  submit_settled w ~n:3;
  let victim = World.replica w 2 in
  Replica.submit victim
    (Action.Update [ Op.Set ("repropose", Value.Int 42) ])
    ~on_response:(fun _ -> ());
  (* The ongoing record's forced write completes at +1.01 ms; crash
     right after it, before the multicast copy comes back. *)
  Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_us 1_050) (fun () ->
      Replica.crash victim);
  World.run w ~ms:10.;
  Replica.recover victim;
  Alcotest.(check bool) "action restored to the ongoing queue" true
    (List.exists
       (fun (a : Action.t) ->
         match a.kind with
         | Action.Update (Op.Set ("repropose", _) :: _) -> true
         | _ -> false)
       (Engine.ongoing_actions (Replica.engine victim)));
  World.heal_and_settle w;
  List.iter
    (fun r ->
      Alcotest.(check (option (option value_t)))
        (Printf.sprintf "re-proposed action green at n%d" (Replica.node r))
        (Some (Some (Value.Int 42)))
        (List.assoc_opt "repropose" (Replica.weak_query r [ "repropose" ])))
    (World.replicas w);
  World.assert_ok w ~ledgers:[]

(* Figure 5(b)'s trade-off, the loss side: in Delayed mode the client
   is acknowledged before durability.  Crash between the ack and the
   background flush; the survivor copies re-teach the victim and the
   cluster converges with the action applied exactly once. *)
let test_delayed_mode_lost_ack_window () =
  let disk_config =
    (* Stretch the background-flush period so the ack-to-flush window is
       wide enough to crash inside deterministically. *)
    {
      Disk.default_delayed with
      Disk.sync_jitter = 0.;
      delayed_flush_interval = Sim.Time.of_ms 400.;
      faults = Disk.no_faults;
    }
  in
  let w = World.make ~disk_config ~n:3 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  let victim = World.replica w 0 in
  let acked = ref false in
  Replica.submit victim
    (Action.Update [ Op.Set ("risky", Value.Int 7) ])
    ~on_response:(fun _ -> acked := true);
  (* Green (and the client answer) lands within a few ms; the background
     flush is ~100 ms away. *)
  World.run w ~ms:30.;
  Alcotest.(check bool) "client acknowledged before the crash" true !acked;
  let peer_greens = Engine.green_count (Replica.engine (World.replica w 1)) in
  Replica.crash victim;
  Replica.recover victim;
  Alcotest.(check bool) "log itself recovers clean" true
    (Replica.last_recovery victim = Some Persist.V_clean);
  Alcotest.(check bool) "acknowledged green knowledge was lost" true
    (Engine.green_count (Replica.engine victim) < peer_greens);
  World.heal_and_settle w;
  Alcotest.(check (option (option value_t)))
    "action re-learned from the survivors" (Some (Some (Value.Int 7)))
    (List.assoc_opt "risky" (Replica.weak_query victim [ "risky" ]));
  World.assert_ok w ~ledgers:[]

(* The pinned campaign the dune @nemesis-smoke alias also runs: seed 42
   exercises every recovery verdict in one schedule — including a
   failover onto an amnesiac §5.1 rejoiner — and must converge with
   both checkers silent and the client oracle clean. *)
let test_nemesis_campaign_seed42 () =
  let config =
    { Nemesis.default_config with seed = 42; active_ms = 3_000. }
  in
  let o = Nemesis.run ~config () in
  Alcotest.(check (list string)) "no checker violations" [] (rendered o);
  Alcotest.(check bool) "converged" true (Nemesis.converged o);
  Alcotest.(check int) "every replica ready" config.Nemesis.nodes o.Nemesis.o_ready;
  Alcotest.(check bool) "monitor observed the run" true (o.Nemesis.o_sweeps > 0);
  Alcotest.(check bool) "workload ran" true (o.Nemesis.o_submitted > 0);
  Alcotest.(check bool) "footprint guard exercised" true
    (o.Nemesis.o_procs > 0);
  Alcotest.(check bool) "clean recovery exercised" true (o.Nemesis.o_clean >= 1);
  Alcotest.(check bool) "torn tail exercised" true (o.Nemesis.o_torn >= 1);
  Alcotest.(check bool) "salvage exercised" true (o.Nemesis.o_salvaged >= 1);
  Alcotest.(check bool) "amnesia exercised" true (o.Nemesis.o_amnesia >= 1);
  Alcotest.(check bool) "client failover exercised" true
    (o.Nemesis.o_failovers >= 1);
  Alcotest.(check bool) "retried requests deduplicated" true
    (o.Nemesis.o_dupes_suppressed >= 1)

(* Determinism: the same seed must reproduce the same campaign. *)
let test_nemesis_deterministic () =
  let config =
    { Nemesis.default_config with seed = 2; active_ms = 1_500. }
  in
  let a = Nemesis.run ~config () in
  let b = Nemesis.run ~config () in
  Alcotest.(check bool) "same outcome" true (a = b)

(* Regression campaigns.  At seeds 10 and 40 one member came back from
   its faults with a green count below every body the group still held:
   the green retransmission plan could not cover the gap, so the state
   exchange never finished and the member stayed stuck for the rest of
   the run.  Such a member now re-enters by state transfer, and both
   campaigns must converge with every checker silent. *)
let test_nemesis_campaign_clean seed () =
  let config = { Nemesis.default_config with seed; active_ms = 3_000. } in
  let o = Nemesis.run ~config () in
  Alcotest.(check (list string)) "no checker violations" [] (rendered o);
  Alcotest.(check bool) "converged" true (Nemesis.converged o);
  Alcotest.(check int)
    "every replica ready" config.Nemesis.nodes o.Nemesis.o_ready

let () =
  Alcotest.run "nemesis"
    [
      ( "verdicts",
        [
          Alcotest.test_case "torn tail recovers in place" `Quick
            test_torn_tail_recovers_in_place;
          Alcotest.test_case "interior corruption salvages" `Quick
            test_interior_corruption_salvages;
          Alcotest.test_case "head corruption goes amnesiac" `Quick
            test_head_corruption_goes_amnesiac;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "ongoing re-proposed after restart" `Quick
            test_ongoing_reproposed_after_restart;
          Alcotest.test_case "delayed-mode lost-ack window" `Quick
            test_delayed_mode_lost_ack_window;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "pinned seed 42 covers all verdicts" `Quick
            test_nemesis_campaign_seed42;
          Alcotest.test_case "seeded campaign is deterministic" `Quick
            test_nemesis_deterministic;
        ] );
      ( "regression",
        [
          Alcotest.test_case "seed 10 converges" `Quick
            (test_nemesis_campaign_clean 10);
          Alcotest.test_case "seed 40 converges" `Quick
            (test_nemesis_campaign_clean 40);
        ] );
    ]
