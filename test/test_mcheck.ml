(* The model checker checked: scripts round-trip, the abstract EVS model
   honours the safe-delivery contract, exploration of the correct engine
   is clean and exhaustive, the seeded quorum mutation is found with a
   minimized, deterministically replayable counterexample, and the
   reductions (DPOR, sleep sets, cache) actually prune. *)

open Repro_net
open Repro_gcs
open Repro_core
module Check = Repro_check
open Repro_mcheck

(* --- scripts ---------------------------------------------------------- *)

let test_script_roundtrip () =
  let script =
    [
      Script.T_deliver 0;
      Script.T_submit 2;
      Script.T_crash 1;
      Script.T_recover 1;
      Script.T_partition [ [ 0 ]; [ 1; 2 ] ];
      Script.T_merge;
    ]
  in
  let text = Script.to_string script in
  Alcotest.(check bool) "round-trips" true
    (List.for_all2 Script.equal script (Script.of_string text));
  Alcotest.(check bool) "comments and blanks ignored" true
    (List.for_all2 Script.equal script
       (Script.of_string ("# header\n\n" ^ text ^ "\n# trailer\n")))

(* --- the abstract EVS model ------------------------------------------- *)

let test_model_safe_delivery () =
  (* A message sent in a configuration is delivered by every member that
     saw it in_regular, or demoted to the transitional configuration —
     and a member that saw nothing still gets the view events. *)
  let m = Model.create ~nodes:[ 0; 1; 2 ] ~pp_payload:string_of_int () in
  Model.reconfigure m ~components:[ Node_id.set_of_list [ 0; 1; 2 ] ];
  (* Everyone consumes the initial regular configuration. *)
  List.iter
    (fun n ->
      match Model.deliver m n with
      | Some (Endpoint.Reg_conf _) -> ()
      | _ -> Alcotest.fail "expected initial Reg_conf")
    [ 0; 1; 2 ];
  Model.send m ~from:0 7;
  (* Node 0 delivers its own message in_regular; 1 and 2 have not. *)
  (match Model.deliver m 0 with
  | Some (Endpoint.Deliver { payload = 7; in_regular = true; _ }) -> ()
  | _ -> Alcotest.fail "node 0 delivers 7 in_regular");
  (* Partition: because one member delivered it in_regular, the others
     must still receive it (the EVS safe rule) before the transitional
     configuration. *)
  Model.reconfigure m
    ~components:[ Node_id.set_of_list [ 0 ]; Node_id.set_of_list [ 1; 2 ] ];
  (match Model.deliver m 1 with
  | Some (Endpoint.Deliver { payload = 7; in_regular = true; _ }) -> ()
  | _ -> Alcotest.fail "node 1 still delivers 7 (safe rule)");
  (match Model.deliver m 1 with
  | Some (Endpoint.Trans_conf _) -> ()
  | _ -> Alcotest.fail "then the transitional configuration");
  (match Model.deliver m 1 with
  | Some (Endpoint.Reg_conf _) -> ()
  | _ -> Alcotest.fail "then the next regular configuration");
  (* A send into the closed configuration after the sender crashed is
     lost, not delivered. *)
  Model.crash m 2;
  Model.send m ~from:2 9;
  Alcotest.(check int) "ghost send lost" 1 (Model.lost_sends m)

(* --- the system harness ----------------------------------------------- *)

let test_system_stabilizes_clean () =
  let sys = System.create ~nodes:3 () in
  Alcotest.(check (list string)) "boot violates nothing" []
    (List.map
       (fun v -> Format.asprintf "%a" Check.Snapshot.pp_violation v)
       (System.stabilize sys));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d in RegPrim" n)
        true
        (System.node_state sys n = Some Types.Reg_prim))
    [ 0; 1; 2 ];
  (* Quiescent: nothing to deliver, so only submissions and faults. *)
  Alcotest.(check bool) "no pending deliveries" true
    (not (List.exists Script.is_deliver (System.enabled sys)))

let test_system_fingerprint_deterministic () =
  let boot () =
    let sys = System.create ~nodes:3 () in
    ignore (System.stabilize sys);
    ignore (System.apply sys (Script.T_partition [ [ 0 ]; [ 1; 2 ] ]));
    ignore (System.apply sys (Script.T_deliver 1));
    sys
  in
  Alcotest.(check string)
    "same prefix, same fingerprint"
    (System.fingerprint (boot ()))
    (System.fingerprint (boot ()));
  let other = boot () in
  ignore (System.apply other (Script.T_deliver 2));
  Alcotest.(check bool) "progress changes the fingerprint" true
    (System.fingerprint (boot ()) <> System.fingerprint other)

let test_system_inapplicable () =
  let sys = System.create ~nodes:3 () in
  ignore (System.stabilize sys);
  Alcotest.(check bool) "recover of a live node refused" true
    (not (System.apply sys (Script.T_recover 0)).System.applied);
  Alcotest.(check bool) "merge of a whole network refused" true
    (not (System.apply sys Script.T_merge).System.applied);
  Alcotest.(check bool) "identity partition refused" true
    (not (System.apply sys (Script.T_partition [ [ 0; 1; 2 ] ])).System.applied)

(* --- exploration ------------------------------------------------------- *)

let test_explore_clean_small () =
  let o = Explore.run ~nodes:3 ~depth:6 ~faults:1 ~submits:1 () in
  Alcotest.(check bool) "no violations" true (o.Explore.found = None);
  Alcotest.(check bool) "exhaustive" true o.Explore.complete;
  (* Pinned: the simulator's FIFO tie-break decides every same-instant
     order inside a transition, so a change to the event order moves
     these counts. *)
  Alcotest.(check int) "states expanded" 1098 o.Explore.stats.Explore.st_states;
  Alcotest.(check int) "distinct states" 936 o.Explore.stats.Explore.st_distinct

let test_explore_reductions_prune () =
  let o = Explore.run ~nodes:3 ~depth:8 ~faults:2 ~submits:0 () in
  Alcotest.(check bool) "exhaustive" true o.Explore.complete;
  let st = o.Explore.stats in
  Alcotest.(check bool) "DPOR skipped candidate branches" true
    (Explore.reduction_factor st > 1.0);
  Alcotest.(check bool) "sleep sets fired" true (st.Explore.st_sleep_skips > 0);
  Alcotest.(check bool) "cache fired" true (st.Explore.st_cache_hits > 0)

let test_explore_finds_seeded_mutation () =
  let o =
    Explore.run ~policy:Quorum.Mutated_weak_majority ~nodes:3 ~depth:12
      ~faults:2 ~submits:0 ()
  in
  match o.Explore.found with
  | None -> Alcotest.fail "seeded quorum mutation not found"
  | Some cx ->
    Alcotest.(check bool) "counterexample is minimized" true
      (List.length cx.Explore.cx_script <= cx.Explore.cx_raw_len);
    Alcotest.(check bool) "violation is a spec-refinement breach" true
      (List.exists
         (fun v -> v.Check.Snapshot.v_invariant = "spec-refinement")
         cx.Explore.cx_violations);
    (* The counterexample replays deterministically... *)
    (match
       Explore.replay_violations ~policy:Quorum.Mutated_weak_majority ~nodes:3
         cx.Explore.cx_script
     with
    | Some (_, vs) ->
      Alcotest.(check bool) "replay reproduces the violation" true
        (List.exists
           (fun v -> v.Check.Snapshot.v_invariant = "spec-refinement")
           vs)
    | None -> Alcotest.fail "replay did not reproduce");
    (* ...and the same script is clean on the correct engine: the bug is
       in the mutation, not the checker. *)
    Alcotest.(check bool) "correct engine passes the same script" true
      (Explore.replay_violations ~policy:Quorum.Dynamic_linear ~nodes:3
         cx.Explore.cx_script
      = None)

let test_explore_minimize_drops_noise () =
  (* Pad a failing script with irrelevant transitions; minimization must
     strip them and keep the failure. *)
  let o =
    Explore.run ~policy:Quorum.Mutated_weak_majority ~nodes:3 ~depth:12
      ~faults:2 ~submits:0 ()
  in
  match o.Explore.found with
  | None -> Alcotest.fail "no counterexample to pad"
  | Some cx ->
    let padded = (Script.T_submit 0 :: cx.Explore.cx_script) @ [ Script.T_merge ] in
    let minimized =
      Explore.minimize ~policy:Quorum.Mutated_weak_majority ~nodes:3 padded
    in
    Alcotest.(check bool) "padding removed" true
      (List.length minimized <= List.length cx.Explore.cx_script);
    Alcotest.(check bool) "still fails" true
      (Explore.replay_violations ~policy:Quorum.Mutated_weak_majority ~nodes:3
         minimized
      <> None)

let () =
  Alcotest.run "mcheck"
    [
      ( "script",
        [ Alcotest.test_case "text round-trip" `Quick test_script_roundtrip ] );
      ( "model",
        [
          Alcotest.test_case "safe delivery across a view change" `Quick
            test_model_safe_delivery;
        ] );
      ( "system",
        [
          Alcotest.test_case "clean boot to RegPrim" `Quick
            test_system_stabilizes_clean;
          Alcotest.test_case "fingerprints are deterministic" `Quick
            test_system_fingerprint_deterministic;
          Alcotest.test_case "inapplicable transitions refused" `Quick
            test_system_inapplicable;
        ] );
      ( "explore",
        [
          Alcotest.test_case "small clean space is exhaustive" `Slow
            test_explore_clean_small;
          Alcotest.test_case "reductions prune" `Slow
            test_explore_reductions_prune;
          Alcotest.test_case "seeded mutation found and replayed" `Slow
            test_explore_finds_seeded_mutation;
          Alcotest.test_case "minimization drops noise" `Slow
            test_explore_minimize_drops_noise;
        ] );
    ]
