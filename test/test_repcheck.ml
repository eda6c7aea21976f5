(* The repcheck checker checked: every invariant of the catalogue must
   fire on a hand-built bad observation and stay silent on a good one;
   the online monitor must observe real scenarios without violations;
   and — the critical property of any checker — a deliberately broken
   engine must be caught. *)

open Repro_net
open Repro_gcs
open Repro_db
open Repro_core
open Repro_harness
module Check = Repro_check
module Snapshot = Repro_check.Snapshot

(* --- hand-built snapshots ------------------------------------------- *)

let id server index = { Action.Id.server; index }
let act (i : Action.Id.t) = Action.make ~server:i.server ~index:i.index (Update [])

let prim ?(index = 1) ?(attempt = 1) servers =
  {
    Types.prim_index = index;
    prim_attempt = attempt;
    prim_servers = Node_id.set_of_list servers;
  }

let snap ?(node = 0) ?(incarnation = 0) ?(state = Types.Reg_prim) ?(floor = 0)
    ?(greens = []) ?green_count ?(reds = []) ?(red_cut = []) ?(white = 0)
    ?(prim = prim [ 0; 1; 2 ]) ?(in_primary = true) () =
  let green_count =
    match green_count with Some c -> c | None -> floor + List.length greens
  in
  {
    Snapshot.ns_node = node;
    ns_incarnation = incarnation;
    ns_state = state;
    ns_green_floor = floor;
    ns_green = List.map act greens;
    ns_green_count = green_count;
    ns_green_line =
      (match List.rev greens with [] -> None | last :: _ -> Some last);
    ns_red = List.map act reds;
    ns_yellow = Types.invalid_yellow;
    ns_red_cut =
      List.fold_left
        (fun m (n, c) -> Node_id.Map.add n c m)
        Node_id.Map.empty red_cut;
    ns_white_line = white;
    ns_prim = prim;
    ns_vulnerable = Types.invalid_vulnerable;
    ns_in_primary = in_primary;
    ns_attempt = 0;
    ns_ongoing = [];
    ns_known_servers = prim.Types.prim_servers;
  }

let fired name vs =
  List.exists (fun v -> v.Snapshot.v_invariant = name) vs

let check_fires name vs =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires" name)
    true (fired name vs)

let check_clean vs =
  Alcotest.(check int)
    (Format.asprintf "no violations, got: %a"
       (Format.pp_print_list Snapshot.pp_violation)
       vs)
    0 (List.length vs)

(* --- instantaneous invariants --------------------------------------- *)

let test_total_order () =
  let a = snap ~node:0 ~greens:[ id 0 1; id 1 1; id 0 2 ] () in
  let b = snap ~node:1 ~greens:[ id 0 1; id 1 1 ] () in
  check_clean (Snapshot.check_total_order [ a; b ]);
  let c = snap ~node:2 ~greens:[ id 0 1; id 2 1 ] () in
  check_fires "global-total-order" (Snapshot.check_total_order [ a; b; c ])

let test_total_order_floors () =
  (* A joiner with floor 2 holds positions 3..: its overlap with the
     full-history replica must still agree. *)
  let full = snap ~node:0 ~greens:[ id 0 1; id 1 1; id 0 2; id 1 2 ] () in
  let joiner = snap ~node:9 ~floor:2 ~greens:[ id 0 2; id 1 2 ] () in
  check_clean (Snapshot.check_total_order [ full; joiner ]);
  let bad_joiner = snap ~node:9 ~floor:2 ~greens:[ id 0 2; id 2 7 ] () in
  check_fires "global-total-order"
    (Snapshot.check_total_order [ full; bad_joiner ]);
  (* Disagreement below the longest replica's floor: only the two
     full-history replicas still see those positions. *)
  let ref_long =
    snap ~node:0 ~floor:2 ~greens:[ id 0 2; id 1 2; id 0 3 ] ()
  in
  let old_a = snap ~node:1 ~greens:[ id 0 1; id 1 1 ] ~green_count:2 () in
  let old_b = snap ~node:2 ~greens:[ id 5 5; id 1 1 ] ~green_count:2 () in
  check_fires "global-total-order"
    (Snapshot.check_total_order [ ref_long; old_a; old_b ])

let test_fifo () =
  let good = snap ~greens:[ id 0 1; id 1 1; id 0 2; id 1 2 ] () in
  check_clean (Snapshot.check_fifo [ good ]);
  let gap = snap ~greens:[ id 0 1; id 0 3 ] () in
  check_fires "global-fifo" (Snapshot.check_fifo [ gap ]);
  let reorder = snap ~greens:[ id 0 2; id 0 1 ] () in
  check_fires "global-fifo" (Snapshot.check_fifo [ reorder ])

let test_primary_exclusivity () =
  let a = snap ~node:0 ~prim:(prim [ 0; 1 ]) () in
  let b = snap ~node:1 ~prim:(prim [ 0; 1 ]) () in
  check_clean (Snapshot.check_primary_exclusivity [ a; b ]);
  (* Same index installed by two disjoint memberships: split brain. *)
  let c = snap ~node:2 ~prim:(prim ~attempt:2 [ 2; 3 ]) () in
  check_fires "primary-exclusivity"
    (Snapshot.check_primary_exclusivity [ a; b; c ]);
  (* A member operating in a primary it does not belong to. *)
  let outsider = snap ~node:7 ~prim:(prim [ 0; 1 ]) () in
  check_fires "primary-exclusivity"
    (Snapshot.check_primary_exclusivity [ outsider ])

let test_coherence () =
  let good = snap ~greens:[ id 0 1 ] ~white:1 () in
  check_clean (Snapshot.check_coherence [ good ]);
  let white_ahead = snap ~greens:[ id 0 1 ] ~white:5 () in
  check_fires "white-line" (Snapshot.check_coherence [ white_ahead ]);
  let bad_line =
    { (snap ~greens:[ id 0 1; id 0 2 ] ()) with
      Snapshot.ns_green_line = Some (id 0 1)
    }
  in
  check_fires "green-line" (Snapshot.check_coherence [ bad_line ])

(* --- step invariants ------------------------------------------------- *)

let test_step_monotonicity () =
  let prev = snap ~greens:[ id 0 1; id 1 1 ] ~white:1 ~red_cut:[ (0, 3) ] () in
  let cur =
    snap
      ~greens:[ id 0 1; id 1 1; id 0 2 ]
      ~white:2
      ~red_cut:[ (0, 4); (1, 1) ]
      ()
  in
  check_clean (Snapshot.check_step ~prev ~cur);
  (* Green regression. *)
  check_fires "green-monotone"
    (Snapshot.check_step ~prev ~cur:(snap ~greens:[ id 0 1 ] ()));
  (* A green position rewritten in place. *)
  check_fires "green-append-only"
    (Snapshot.check_step ~prev
       ~cur:(snap ~greens:[ id 0 1; id 5 5; id 0 2 ] ()));
  (* White regression. *)
  check_fires "white-monotone"
    (Snapshot.check_step ~prev ~cur:{ cur with Snapshot.ns_white_line = 0 });
  (* Red cut regression. *)
  check_fires "red-cut-monotone"
    (Snapshot.check_step ~prev
       ~cur:{ cur with Snapshot.ns_red_cut = Node_id.Map.singleton 0 1 });
  (* A crash (new incarnation) legitimately resets volatile state. *)
  check_clean
    (Snapshot.check_step ~prev
       ~cur:(snap ~incarnation:1 ~greens:[ id 0 1 ] ()));
  (* White GC: the floor rising past old positions is legitimate. *)
  check_clean
    (Snapshot.check_step ~prev
       ~cur:(snap ~floor:1 ~greens:[ id 1 1; id 0 2 ] ~white:1
               ~red_cut:[ (0, 3) ] ()))

(* --- the monitor over live scenarios --------------------------------- *)

let test_monitor_clean_run () =
  let w = World.make ~seed:21 ~n:5 () in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  for i = 1 to 10 do
    World.submit_update w ~node:(i mod 5) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:500.;
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  Replica.crash (World.replica w 4);
  World.run w ~ms:1000.;
  Topology.merge_all (World.topology w);
  Replica.recover (World.replica w 4);
  World.run w ~ms:5000.;
  World.assert_ok w ~ledgers:[];
  Alcotest.(check bool) "monitor swept" true (Check.Monitor.observations mon > 1);
  let saw f =
    List.exists (fun (_, _, ev) -> f ev) (Check.Monitor.recent mon)
  in
  Alcotest.(check bool) "saw state transitions" true
    (saw (function Engine.Audit_state _ -> true | _ -> false));
  Alcotest.(check bool) "saw quorum decisions" true
    (saw (function Engine.Audit_quorum _ -> true | _ -> false));
  Alcotest.(check bool) "saw primary installs" true
    (saw (function Engine.Audit_install _ -> true | _ -> false))

(* The checker's reason to exist: feed two replicas conflicting forged
   actions — something a correct total-order layer can never do — and
   the monitor must notice the diverging green orders. *)
let test_monitor_catches_broken_engine () =
  let w = World.make ~seed:7 ~n:3 () in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  Alcotest.(check bool) "cluster formed a primary" true
    (List.for_all Replica.in_primary (World.replicas w));
  let forged_conf = { Conf_id.coord = 0; counter = 999_999 } in
  let forge victim a =
    Engine.handle_event (Replica.engine victim)
      (Endpoint.Deliver
         {
           Endpoint.sender = a.Action.id.Action.Id.server;
           payload = Types.Action_batch [ a ];
           conf = forged_conf;
           seq = 0;
           in_regular = true;
         })
  in
  (* Same green position, different actions, on two different replicas:
     a violation of Global Total Order by construction.  Each forgery
     carries the next FIFO index its victim expects of the creator, so
     it passes the engine's local sanity checks — exactly the kind of
     fault only a cross-replica checker can see. *)
  let forge_next victim ~creator v =
    let index = Engine.red_cut (Replica.engine victim) creator + 1 in
    forge victim
      (Action.make ~server:creator ~index
         (Action.Update [ Op.Set ("evil", Value.Int v) ]))
  in
  forge_next (World.replica w 1) ~creator:0 1;
  forge_next (World.replica w 2) ~creator:1 2;
  Check.Monitor.check_now mon;
  Alcotest.(check bool) "broken engine detected" false (Check.Monitor.ok mon);
  let names =
    List.map (fun v -> v.Snapshot.v_invariant) (Check.Monitor.violations mon)
  in
  Alcotest.(check bool) "caught by an order invariant" true
    (List.exists
       (fun n -> n = "global-total-order" || n = "global-fifo")
       names)

(* Violation reporting: a broken engine must produce full records — the
   violation, its timestamp, and a non-empty trace window around it —
   and the pretty-printed report must carry all of it. *)
let test_monitor_violation_report () =
  let w = World.make ~seed:11 ~n:3 () in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  for i = 1 to 4 do
    World.submit_update w ~node:(i mod 3) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:500.;
  (* Forge a green-order divergence (same construction as above: passes
     local FIFO checks, breaks the global order across replicas). *)
  let forge victim ~creator v =
    let index = Engine.red_cut (Replica.engine victim) creator + 1 in
    Engine.handle_event (Replica.engine victim)
      (Endpoint.Deliver
         {
           Endpoint.sender = creator;
           payload =
             Types.Action_batch
               [
                 Action.make ~server:creator ~index
                   (Action.Update [ Op.Set ("evil", Value.Int v) ]);
               ];
           conf = { Conf_id.coord = 0; counter = 999_999 };
           seq = 0;
           in_regular = true;
         })
  in
  forge (World.replica w 1) ~creator:0 1;
  forge (World.replica w 2) ~creator:1 2;
  Check.Monitor.check_now mon;
  let records = Check.Monitor.records mon in
  Alcotest.(check bool) "at least one record" true (records <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "record has a trace window" true
        (r.Check.Monitor.r_window <> []))
    records;
  let report = Format.asprintf "%t" (Check.Monitor.report mon) in
  let contains needle =
    let nl = String.length needle and hl = String.length report in
    let rec scan i =
      i + nl <= hl && (String.sub report i nl = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "report counts violations" true
    (contains "violation(s)");
  Alcotest.(check bool) "report names the invariant" true
    (List.exists
       (fun r -> contains r.Check.Monitor.r_violation.Snapshot.v_invariant)
       records);
  Alcotest.(check bool) "report prints the trace window" true
    (contains "trace window")

(* The Figure 4 edge guard, driven by hand: the spec oracle must accept
   an edge taken under its abstract trigger and flag one that is not. *)
let test_spec_edges () =
  let spec = Check.Spec.create () in
  let conf = { Conf_id.coord = 0; counter = 1 } in
  let members = Node_id.set_of_list [ 0; 1 ] in
  Check.Spec.on_input spec ~node:0
    (Endpoint.Reg_conf { Endpoint.id = conf; members });
  Check.Spec.on_audit spec ~node:0 (Engine.Audit_state Types.Exchange_states);
  Alcotest.(check int) "RegConf then ExchangeStates is clean" 0
    (List.length (Check.Spec.take spec));
  let sm =
    {
      Types.sm_server = 1;
      sm_conf = conf;
      sm_red_cut = Node_id.Map.empty;
      sm_green_count = 0;
      sm_green_line = None;
      sm_green_floor = 0;
      sm_attempt = 0;
      sm_prim = Types.initial_prim ~servers:members;
      sm_vulnerable = Types.invalid_vulnerable;
      sm_yellow = Types.invalid_yellow;
    }
  in
  Check.Spec.on_input spec ~node:0
    (Endpoint.Deliver
       {
         Endpoint.sender = 1;
         payload = Types.State_msg sm;
         conf;
         seq = 0;
         in_regular = true;
       });
  Check.Spec.on_audit spec ~node:0 (Engine.Audit_state Types.Reg_prim);
  match Check.Spec.take spec with
  | [ v ] ->
    Alcotest.(check string) "invariant" "spec-refinement"
      v.Snapshot.v_invariant;
    Alcotest.(check bool) "names the illegal edge" true
      (String.starts_with ~prefix:"illegal Figure 4 edge" v.Snapshot.v_detail)
  | vs ->
    Alcotest.failf "expected one illegal edge, got %d violations"
      (List.length vs)

(* The online monitor runs the spec's IsQuorum: a world whose engines use
   the seeded weak-majority quorum (exactly half, no tie-breaker) must be
   caught the moment a half partition is granted a quorum. *)
let test_monitor_catches_mutated_quorum () =
  let w =
    World.make ~quorum_policy:Quorum.Mutated_weak_majority ~seed:3 ~n:4 ()
  in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  Topology.partition (World.topology w) [ [ 0 ]; [ 1 ]; [ 2; 3 ] ];
  World.run w ~ms:2000.;
  Check.Monitor.check_now mon;
  Alcotest.(check bool) "mutated quorum caught" false (Check.Monitor.ok mon);
  Alcotest.(check bool) "a granted quorum the spec would deny" true
    (List.exists
       (fun v ->
         String.starts_with
           ~prefix:"engine granted a quorum the specification would deny"
           v.Snapshot.v_detail)
       (Check.Monitor.violations mon))

(* --- the one encoding ------------------------------------------------- *)

let vulnerable ~bits =
  {
    Types.v_valid = true;
    v_prim_index = 1;
    v_attempt = 2;
    v_set = Node_id.set_of_list [ 0; 1; 2 ];
    v_bits = Node_id.set_of_list bits;
  }

let yellow ids = { Types.y_valid = true; y_set = ids }

(* Every field but the incarnation reaches [Snapshot.facts], which the
   model checker hashes and the determinism check diffs.  The record is
   spelled out in full, so a new field does not compile here until it
   is given a changed value.  An action's creation-time green count
   reaches it too: a resent ongoing action delivered in RegPrim moves
   the white line by it. *)
let test_facts_cover_fields () =
  let b =
    {
      (snap ~greens:[ id 0 1 ] ~reds:[ id 2 1 ] ~red_cut:[ (0, 1) ] ()) with
      Snapshot.ns_ongoing = [ act (id 0 2) ];
    }
  in
  let altered field =
    let pick name alt orig = if String.equal name field then alt else orig in
    {
      Snapshot.ns_node = pick "node" 1 b.Snapshot.ns_node;
      ns_incarnation = pick "incarnation" 7 b.ns_incarnation;
      ns_state = pick "state" Types.Non_prim b.ns_state;
      ns_green_floor = pick "green_floor" 1 b.ns_green_floor;
      ns_green = pick "green" [ act (id 1 1) ] b.ns_green;
      ns_green_count = pick "green_count" 2 b.ns_green_count;
      ns_green_line = pick "green_line" None b.ns_green_line;
      ns_red = pick "red" [] b.ns_red;
      ns_yellow = pick "yellow" (yellow [ id 0 1 ]) b.ns_yellow;
      ns_red_cut = pick "red_cut" Node_id.Map.empty b.ns_red_cut;
      ns_white_line = pick "white_line" 1 b.ns_white_line;
      ns_prim = pick "prim" (prim ~index:2 [ 0; 1 ]) b.ns_prim;
      ns_vulnerable = pick "vulnerable" (vulnerable ~bits:[ 0 ]) b.ns_vulnerable;
      ns_in_primary = pick "in_primary" false b.ns_in_primary;
      ns_attempt = pick "attempt" 3 b.ns_attempt;
      ns_ongoing = pick "ongoing" [] b.ns_ongoing;
      ns_known_servers =
        pick "known_servers" (Node_id.set_of_list [ 0; 1 ]) b.ns_known_servers;
    }
  in
  let facts = Snapshot.facts b in
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (field ^ " changes the facts")
        false
        (Snapshot.facts (altered field) = facts))
    [
      "node"; "state"; "green_floor"; "green"; "green_count"; "green_line";
      "red"; "yellow"; "red_cut"; "white_line"; "prim"; "vulnerable";
      "in_primary"; "attempt"; "ongoing"; "known_servers";
    ];
  let later (a : Action.t) = { a with green_count = a.green_count + 1 } in
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool)
        (what ^ " creation green count changes the facts")
        false
        (Snapshot.facts s = facts))
    [
      ("green", { b with ns_green = List.map later b.ns_green });
      ("red", { b with ns_red = List.map later b.ns_red });
      ("ongoing", { b with ns_ongoing = List.map later b.ns_ongoing });
    ];
  Alcotest.(check (list string))
    "the incarnation does not" facts
    (Snapshot.facts (altered "incarnation"))

(* Two state messages that differ only in red cut, vulnerable bits or
   yellow set print apart: the model checker hashes queued payloads
   through [Types.pp_payload]. *)
let test_payload_printer_faithful () =
  let sm =
    {
      Types.sm_server = 1;
      sm_conf = { Conf_id.coord = 0; counter = 4 };
      sm_red_cut = Node_id.Map.singleton 0 2;
      sm_green_count = 1;
      sm_green_line = Some (id 0 1);
      sm_green_floor = 0;
      sm_attempt = 2;
      sm_prim = prim [ 0; 1; 2 ];
      sm_vulnerable = vulnerable ~bits:[ 0 ];
      sm_yellow = yellow [ id 0 2 ];
    }
  in
  let text sm = Format.asprintf "%a" Types.pp_payload (Types.State_msg sm) in
  List.iter
    (fun (what, sm') ->
      Alcotest.(check bool)
        (what ^ " prints apart")
        false
        (String.equal (text sm) (text sm')))
    [
      ("red cut", { sm with sm_red_cut = Node_id.Map.singleton 0 3 });
      ("vulnerable bits", { sm with sm_vulnerable = vulnerable ~bits:[ 0; 1 ] });
      ("yellow set", { sm with sm_yellow = yellow [ id 0 2; id 1 1 ] });
    ]

(* --- determinism ------------------------------------------------------ *)

let scenario seed () =
  let w = World.make ~seed ~n:4 () in
  World.run w ~ms:800.;
  Topology.partition (World.topology w) [ [ 0; 1 ]; [ 2; 3 ] ];
  for i = 1 to 10 do
    World.submit_update w ~node:(i mod 4) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:1200.;
  World.heal_and_settle ~ms:4000. w;
  Check.Determinism.fingerprint ~sim:(World.sim w) (World.replicas w)

let test_determinism_same_seed () =
  let diff = Check.Determinism.check ~run:(scenario 42) () in
  Alcotest.(check (list string)) "two same-seed runs are identical" [] diff

(* A small seed matrix: determinism must hold across schedules, not for
   one lucky seed. *)
let test_determinism_seed_matrix () =
  List.iter
    (fun seed ->
      let diff = Check.Determinism.check ~run:(scenario seed) () in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d is deterministic" seed)
        [] diff)
    [ 7; 13; 99 ]

(* A burst buffered during an exchange travels as one multi-action
   batch; the runs that carry it must stay deterministic. *)
let batch_scenario seed () =
  let w = World.make ~seed ~n:3 () in
  World.run w ~ms:800.;
  Burst.submit_during_exchange w ~node:0 ~count:25 ~key:(fun i ->
      Printf.sprintf "k%d" (i mod 5));
  World.run w ~ms:3000.;
  World.heal_and_settle w;
  let stats = Engine.stats (Replica.engine (World.replica w 0)) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: the burst went out batched" seed)
    true
    (stats.Engine.s_batched_submissions > stats.Engine.s_submit_batches);
  Check.Determinism.fingerprint (World.replicas w)

let test_determinism_batched_runs () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: batched run is deterministic" seed)
        []
        (Check.Determinism.check ~run:(batch_scenario seed) ()))
    [ 5; 21; 42 ]

let test_determinism_diff_detects () =
  Alcotest.(check int) "one differing line" 1
    (List.length (Check.Determinism.diff [ "a"; "b" ] [ "a"; "c" ]));
  Alcotest.(check int) "missing tail line" 1
    (List.length (Check.Determinism.diff [ "a"; "b" ] [ "a" ]));
  Alcotest.(check (list string)) "equal lists" []
    (Check.Determinism.diff [ "a"; "b" ] [ "a"; "b" ])

let () =
  Alcotest.run "repcheck"
    [
      ( "snapshot-invariants",
        [
          Alcotest.test_case "global total order" `Quick test_total_order;
          Alcotest.test_case "total order across floors" `Quick
            test_total_order_floors;
          Alcotest.test_case "global fifo" `Quick test_fifo;
          Alcotest.test_case "primary exclusivity" `Quick
            test_primary_exclusivity;
          Alcotest.test_case "snapshot coherence" `Quick test_coherence;
          Alcotest.test_case "color monotonicity steps" `Quick
            test_step_monotonicity;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean scenario, zero violations" `Slow
            test_monitor_clean_run;
          Alcotest.test_case "broken engine is caught" `Quick
            test_monitor_catches_broken_engine;
          Alcotest.test_case "violation report carries trace window" `Quick
            test_monitor_violation_report;
          Alcotest.test_case "spec flags an illegal Figure 4 edge" `Quick
            test_spec_edges;
          Alcotest.test_case "mutated quorum is caught" `Quick
            test_monitor_catches_mutated_quorum;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "facts cover every field" `Quick
            test_facts_cover_fields;
          Alcotest.test_case "payload printer is faithful" `Quick
            test_payload_printer_faithful;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical runs" `Slow
            test_determinism_same_seed;
          Alcotest.test_case "seed matrix is deterministic" `Slow
            test_determinism_seed_matrix;
          Alcotest.test_case "diff detects divergence" `Quick
            test_determinism_diff_detects;
          Alcotest.test_case "batched runs are deterministic" `Slow
            test_determinism_batched_runs;
        ] );
    ]
