(* End-to-end client reliability (the failover session of
   lib/harness/client.ml): per-client FIFO and read-your-writes must
   survive a mid-stream crash of the session's target and its later
   rejoin, every request must execute exactly once across however many
   retries and failovers it takes, and the replicated dedup window —
   the state that pays for all of this — must stay bounded no matter
   how the campaign goes. *)

module Sim = Repro_sim
open Repro_storage
open Repro_db
open Repro_core
open Repro_harness

let nojitter = { Disk.default_forced with Disk.sync_jitter = 0. }
let quiet_disk = { nojitter with Disk.sync_latency = Sim.Time.of_ms 1. }

let value_t = Alcotest.testable Value.pp Value.equal

(* A client session streams writes 1..n to a private key, reading the
   key back (an ordered read, same request-id machinery) after every
   ack.  Mid-stream its contact replica crashes — the in-flight request
   must fail over, be deduplicated if the old target already executed
   it, and the stream must continue FIFO; the crashed replica later
   recovers and rejoins.  Client id 1 starts on replica index 0, so the
   crash provably hits the session's own target. *)
let test_failover_fifo_read_your_writes () =
  let total = 20 in
  let w = World.make ~disk_config:quiet_disk ~seed:11 ~n:5 () in
  let monitor = World.attach_monitor w in
  World.run w ~ms:1000.;
  let c =
    Client.create ~sim:(World.sim w) ~id:1
      ~replicas:(fun () -> World.replicas w)
      ()
  in
  let reads_seen = ref [] in
  let rec step i =
    if i <= total then
      Client.exec c
        (Action.Update [ Op.Set ("stream", Value.Int i); Op.Add ("cc1", 1) ])
        ~k:(fun _ ->
          (* Read-your-writes across failover: the ordered read that
             follows each ack must observe at least this write, on
             whichever replica the session reaches. *)
          Client.read c [ "stream" ] ~k:(fun kvs ->
              (match List.assoc_opt "stream" kvs with
              | Some (Some (Value.Int v)) ->
                reads_seen := v :: !reads_seen;
                if v < i then
                  Alcotest.failf "read-your-writes violated: wrote %d, read %d"
                    i v
              | _ -> Alcotest.failf "stream key missing after write %d" i);
              step (i + 1)))
  in
  step 1;
  (* Crash the session's target mid-stream, rejoin it later. *)
  let victim = World.replica w 0 in
  Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 80.) (fun () ->
      Replica.crash victim);
  Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 2000.) (fun () ->
      Replica.recover victim);
  World.run w ~ms:30_000.;
  World.heal_and_settle w;
  (* Each step is two requests: the write and the read-back. *)
  Alcotest.(check int) "every write and read acked" (2 * total)
    (Client.acked c);
  Alcotest.(check int) "nothing outstanding" 0 (Client.outstanding c);
  Alcotest.(check bool) "the crash forced at least one failover" true
    (Client.failovers c >= 1);
  (* FIFO: the interleaved reads observed a non-decreasing stream. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> b <= a && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "reads observed a FIFO stream" true
    (monotone !reads_seen);
  (* Exactly-once, replica-visible: the counter incremented once per
     acked WRITE on every replica, crashes and retries included (the
     interleaved reads must not move it, so the generic ledger — one
     increment per request — does not apply here). *)
  List.iter
    (fun r ->
      Alcotest.(check (option (option value_t)))
        (Printf.sprintf "write counter exact at n%d" (Replica.node r))
        (Some (Some (Value.Int total)))
        (List.assoc_opt "cc1" (Replica.weak_query r [ "cc1" ])))
    (World.replicas w);
  List.iter
    (fun r ->
      Alcotest.(check (option (option value_t)))
        (Printf.sprintf "final stream value at n%d" (Replica.node r))
        (Some (Some (Value.Int total)))
        (List.assoc_opt "stream" (Replica.weak_query r [ "stream" ])))
    (World.replicas w);
  Alcotest.(check (list string)) "all safety + convergence checks" []
    (List.map
       (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
       (Consistency.check_all ~converged:true (World.replicas w)));
  Repro_check.Monitor.check_now monitor;
  Repro_check.Monitor.assert_ok monitor

(* Property: the per-client response cache that backs exactly-once
   never grows past the configured window, no matter how many clients,
   retries, failovers, crashes or recoveries a schedule packs in.  The
   bound is sampled DURING the campaign (not just at the end) — the
   window is replicated state, so an excursion would be a durable
   state-growth leak, exactly what the property exists to catch. *)
let test_dedup_cache_bounded () =
  let window = 3 in
  List.iter
    (fun seed ->
      let w =
        World.make ~disk_config:quiet_disk ~dedup_window:window ~seed ~n:5 ()
      in
      World.run w ~ms:1000.;
      let clients =
        List.init 4 (fun i ->
            Client.create
              ~config:
                {
                  Client.default_config with
                  request_timeout = Sim.Time.of_ms 120.;
                }
              ~sim:(World.sim w)
              ~id:(i + 1)
              ~replicas:(fun () -> World.replicas w)
              ())
      in
      List.iter
        (fun c ->
          let rec pump n =
            if n > 0 then
              Client.exec c
                (Action.Update [ Op.Add (Printf.sprintf "cc%d" (Client.id c), 1) ])
                ~k:(fun _ -> pump (n - 1))
          in
          pump 40)
        clients;
      (* Churn underneath the sessions: two targets crash and rejoin. *)
      Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 150.)
        (fun () -> Replica.crash (World.replica w 0));
      Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 400.)
        (fun () -> Replica.crash (World.replica w 3));
      Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 1500.)
        (fun () -> Replica.recover (World.replica w 0));
      Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 1800.)
        (fun () -> Replica.recover (World.replica w 3));
      for _slice = 1 to 100 do
        World.run w ~ms:100.;
        List.iter
          (fun r ->
            let cached = Replica.dedup_max_cached r in
            if cached > Replica.dedup_window r then
              Alcotest.failf
                "seed %d: n%d cached %d responses, window is %d (replicated \
                 state leak)"
                seed (Replica.node r) cached (Replica.dedup_window r))
          (World.replicas w)
      done;
      World.heal_and_settle w;
      List.iter (fun c -> Client.stop c) clients;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d converged with checks clean" seed)
        []
        (List.map
           (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
           (Consistency.check_all ~converged:true (World.replicas w))))
    [ 3; 9; 27 ]

(* The retried-applied path specifically: across the bounded-window
   campaigns above, at least one duplicate attempt must have been
   answered from the cache rather than re-executed — otherwise the
   suite never witnesses the response-replay branch at all.  Pinned
   seeds keep this deterministic. *)
let test_duplicate_answered_from_cache () =
  let w = World.make ~disk_config:quiet_disk ~seed:42 ~n:5 () in
  World.run w ~ms:1000.;
  let c =
    Client.create
      ~config:
        { Client.default_config with request_timeout = Sim.Time.of_ms 60. }
      ~sim:(World.sim w) ~id:1
      ~replicas:(fun () -> World.replicas w)
      ()
  in
  let rec pump n =
    if n > 0 then
      Client.exec c
        (Action.Update [ Op.Add ("cc1", 1) ])
        ~k:(fun _ -> pump (n - 1))
  in
  pump 30;
  (* Crash the target with requests in flight: the timed-out attempts
     are re-sent elsewhere while the total order may already carry the
     original — the duplicate must be answered, not re-applied. *)
  Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 100.) (fun () ->
      Replica.crash (World.replica w 0));
  Sim.Engine.schedule (World.sim w) ~delay:(Sim.Time.of_ms 2000.) (fun () ->
      Replica.recover (World.replica w 0));
  World.run w ~ms:20_000.;
  World.heal_and_settle w;
  let dupes =
    List.fold_left
      (fun acc r -> acc + Replica.dupes_suppressed r)
      0 (World.replicas w)
  in
  Alcotest.(check bool) "a duplicate attempt was answered from the window"
    true (dupes >= 1);
  let ledgers =
    [
      {
        Consistency.l_client = 1;
        l_key = "cc1";
        l_issued = Client.issued c;
        l_acked = Client.acked c;
      };
    ]
  in
  Alcotest.(check (list string)) "exactly-once despite duplicates" []
    (List.map
       (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
       (Consistency.check_exactly_once ~ledgers (World.replicas w)))

(* Sessions with ids past the replica count start on a replica that
   exists: in a 3-replica world, sessions 4 and 5 wrap to replicas 0 and
   1 and get their first answer without waiting out a deadline. *)
let test_start_target_wraps () =
  let w = World.make ~n:3 () in
  World.run w ~ms:1000.;
  List.iter
    (fun id ->
      let c =
        Client.create ~sim:(World.sim w) ~id
          ~replicas:(fun () -> World.replicas w)
          ()
      in
      Client.exec c (Action.Update [ Op.Add ("x", 1) ]) ~k:(fun _ -> ());
      World.run w ~ms:1000.;
      Alcotest.(check int) (Printf.sprintf "session %d answered" id) 1
        (Client.acked c);
      Alcotest.(check int) (Printf.sprintf "session %d timeouts" id) 0
        (Client.timeouts c))
    [ 4; 5 ]

let () =
  Alcotest.run "client"
    [
      ( "failover-session",
        [
          Alcotest.test_case "FIFO + read-your-writes across crash/rejoin"
            `Quick test_failover_fifo_read_your_writes;
          Alcotest.test_case "duplicate answered from the dedup window" `Quick
            test_duplicate_answered_from_cache;
        ] );
      ( "dedup-window",
        [
          Alcotest.test_case "cache never exceeds the window" `Slow
            test_dedup_cache_bounded;
        ] );
      ( "start-target",
        [
          Alcotest.test_case "ids past the replica count wrap" `Quick
            test_start_target_wraps;
        ] );
    ]
