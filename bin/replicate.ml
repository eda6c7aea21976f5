(* The command-line front end for the reproduction's scenarios and
   checkers: a guided fault scenario, seeded nemesis campaigns, the
   Figure 4 specification and the model checker.  The paper's figures
   and ablations are run by bench/main.exe.  `replicate --help` lists
   the commands. *)

open Cmdliner

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

let scenario seed =
  (* A guided fault-schedule demo with the consistency checker on. *)
  let open Repro_harness in
  let w = World.make ~seed ~n:5 () in
  ignore (World.attach_monitor w);
  World.run w ~ms:800.;
  Format.fprintf ppf "5 replicas up; primary installed.@.";
  for i = 1 to 20 do
    World.submit_update w ~node:(i mod 5) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:500.;
  World.assert_safe w;
  Format.fprintf ppf "20 actions committed; safety checks pass.@.";
  Repro_net.Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  for i = 21 to 30 do
    World.submit_update w ~node:(i mod 5) ~key:(Printf.sprintf "k%d" i) i
  done;
  World.run w ~ms:800.;
  World.assert_safe w;
  Format.fprintf ppf "partitioned {0,1,2}/{3,4}: majority commits, minority buffers red.@.";
  Repro_core.Replica.crash (World.replica w 1);
  World.run w ~ms:800.;
  World.assert_safe w;
  Format.fprintf ppf "replica 1 crashed; primary continues with quorum.@.";
  World.heal_and_settle w;
  World.assert_ok w ~ledgers:[];
  Format.fprintf ppf
    "healed and recovered: all replicas converged to identical databases.@.";
  Format.fprintf ppf "scenario OK.@."

let nemesis_outcome_json seed (o : Repro_harness.Nemesis.outcome) =
  let open Repro_harness in
  let b = Buffer.create 512 in
  let field name v = Printf.bprintf b "  %S: %d,\n" name v in
  Buffer.add_string b "{\n";
  field "seed" seed;
  field "steps" o.Nemesis.o_steps;
  field "submitted" o.o_submitted;
  field "crashes" o.o_crashes;
  field "recoveries" o.o_recoveries;
  field "corruptions" o.o_corruptions;
  field "partitions" o.o_partitions;
  field "heals" o.o_heals;
  field "clean" o.o_clean;
  field "torn" o.o_torn;
  field "salvaged" o.o_salvaged;
  field "amnesia" o.o_amnesia;
  field "ready" o.o_ready;
  field "greens" o.o_greens;
  field "client_acked" o.o_client_acked;
  field "retries" o.o_retries;
  field "failovers" o.o_failovers;
  field "dupes_suppressed" o.o_dupes_suppressed;
  field "shed" o.o_shed;
  Printf.bprintf b "  %S: %b,\n" "converged" (Nemesis.converged o);
  let violation (v : Repro_check.Snapshot.violation) =
    Printf.sprintf "{%S: %S, %S: %s, %S: %S}" "invariant" v.v_invariant "node"
      (match v.v_node with Some n -> string_of_int n | None -> "null")
      "detail" v.v_detail
  in
  Printf.bprintf b "  %S: [%s]\n" "violations"
    (String.concat ", " (List.map violation o.o_violations));
  Buffer.add_string b "}";
  Buffer.contents b

let nemesis seed nodes ms expect json =
  let open Repro_harness in
  let config = { Nemesis.seed; nodes; active_ms = ms } in
  (* [--json] keeps stdout machine-parseable: the human narration moves
     to stderr so the document can be piped or archived as-is. *)
  let human = if json then Format.err_formatter else ppf in
  Format.fprintf human
    "nemesis: seed %d, %d nodes, %.0f ms active / %.0f ms settle@." seed nodes
    ms Nemesis.settle_ms;
  let o = Nemesis.run ~config () in
  Format.fprintf human "%a@." Nemesis.pp_outcome o;
  if json then Format.fprintf ppf "%s@." (nemesis_outcome_json seed o);
  if expect = `Clean && not (Nemesis.converged o) then begin
    Format.fprintf human
      "FAILED expectation: convergence with zero checker violations@.";
    exit 1
  end

let nemesis_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let nodes_t =
    Arg.(value & opt int 5 & info [ "nodes" ] ~docv:"N" ~doc:"Replicas.")
  in
  let ms_t =
    Arg.(
      value & opt float 4_000.
      & info [ "ms" ] ~docv:"MS"
          ~doc:"Fault-injection phase duration in virtual milliseconds.")
  in
  let expect_t =
    Arg.(
      value
      & opt (enum [ ("any", `Any); ("clean", `Clean) ]) `Any
      & info [ "expect" ] ~docv:"WHAT"
          ~doc:
            "With 'clean', exit non-zero unless every replica converged and \
             both checkers (repcheck monitor + consistency catalogue) are \
             silent.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also print the outcome as a JSON object (machine-readable, for \
             sweeps).")
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "A seeded randomized fault campaign: crash/restart with storage \
          faults (torn tails, corruption, read errors), partitions and \
          heals under sustained load, then heal, recover and assert \
          convergence and a clean invariant-monitor sweep.")
    Term.(const nemesis $ seed_t $ nodes_t $ ms_t $ expect_t $ json_t)

let scenario_cmd =
  let seed_t =
    Arg.(value & opt int 5 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"A guided partition/crash/heal scenario with safety checks.")
    Term.(const scenario $ seed_t)

(* ------------------------------------------------------------------ *)
(* Model checking                                                      *)

let mc_policy mutate =
  if mutate then Repro_core.Quorum.Mutated_weak_majority
  else Repro_core.Quorum.Dynamic_linear

let mc_policy_name mutate = if mutate then "mutated-weak-majority" else "dynamic-linear"

let mcheck nodes depth faults submits mutate max_states expect script_out =
  let open Repro_mcheck in
  Format.fprintf ppf
    "mcheck: %d nodes, depth %d, %d faults, %d submissions, %s quorum@." nodes
    depth faults submits (mc_policy_name mutate);
  let outcome =
    Explore.run ~policy:(mc_policy mutate) ~max_states ~nodes ~depth ~faults
      ~submits ()
  in
  Format.fprintf ppf "%a@." Explore.pp_stats outcome.Explore.stats;
  if not outcome.Explore.complete then
    Format.fprintf ppf "WARNING: search stopped at --max-states; not exhaustive@.";
  (match outcome.Explore.found with
  | None ->
    Format.fprintf ppf "no violations within bounds (%s)@."
      (if outcome.Explore.complete then "exhaustive" else "truncated")
  | Some cx ->
    Format.fprintf ppf
      "VIOLATION (counterexample: %d transitions, minimized from %d):@."
      (List.length cx.Explore.cx_script)
      cx.Explore.cx_raw_len;
    List.iter
      (fun v ->
        Format.fprintf ppf "  %a@." Repro_check.Snapshot.pp_violation v)
      cx.Explore.cx_violations;
    let script =
      Printf.sprintf "# mcheck counterexample\n# nodes=%d policy=%s\n%s" nodes
        (mc_policy_name mutate)
        (Script.to_string cx.Explore.cx_script)
    in
    Format.fprintf ppf "%s" script;
    (match script_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc script;
      close_out oc;
      Format.fprintf ppf "script written to %s (replay with mcheck-replay)@."
        file));
  let ok =
    match expect with
    | `Any -> true
    | `Clean -> outcome.Explore.found = None && outcome.Explore.complete
    | `Violation -> outcome.Explore.found <> None
  in
  if not ok then begin
    Format.fprintf ppf "FAILED expectation: %s@."
      (match expect with
      | `Clean -> "exhaustive exploration with zero violations"
      | `Violation -> "a violation within the bounds"
      | `Any -> assert false);
    exit 1
  end

let mcheck_cmd =
  let nodes_t =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Replicas.")
  in
  let depth_t =
    Arg.(
      value & opt int 12
      & info [ "depth" ] ~docv:"D" ~doc:"Delivery-transition budget.")
  in
  let faults_t =
    Arg.(
      value & opt int 2
      & info [ "faults" ] ~docv:"F"
          ~doc:"Fault budget (crashes, recoveries, partitions, merges).")
  in
  let submits_t =
    Arg.(
      value & opt int 0
      & info [ "submits" ] ~docv:"S" ~doc:"Client-submission budget.")
  in
  let mutate_t =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Run the seeded quorum mutation (majority weakened to >= half, \
             no tie-breaker): the checker must find it.")
  in
  let max_states_t =
    Arg.(
      value & opt int 5_000_000
      & info [ "max-states" ] ~docv:"N" ~doc:"Stop after expanding N states.")
  in
  let expect_t =
    Arg.(
      value
      & opt (enum [ ("any", `Any); ("clean", `Clean); ("violation", `Violation) ]) `Any
      & info [ "expect" ] ~docv:"WHAT"
          ~doc:
            "Exit non-zero unless the outcome matches: 'clean' (exhaustive, \
             zero violations) or 'violation' (a counterexample was found).")
  in
  let script_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "script-out" ] ~docv:"FILE"
          ~doc:"Write the minimized counterexample script to FILE.")
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Bounded model checking with dynamic partial-order reduction over \
          the replica state machine, against the repcheck invariant \
          catalogue and the abstract-specification refinement oracle.")
    Term.(
      const mcheck $ nodes_t $ depth_t $ faults_t $ submits_t $ mutate_t
      $ max_states_t $ expect_t $ script_out_t)

let mcheck_replay file nodes mutate =
  let open Repro_mcheck in
  let ic = open_in file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let script = Script.of_string text in
  Format.fprintf ppf "replaying %d transitions on %d nodes (%s quorum):@."
    (List.length script) nodes (mc_policy_name mutate);
  List.iter (fun tr -> Format.fprintf ppf "  %a@." Script.pp tr) script;
  match Explore.replay_violations ~policy:(mc_policy mutate) ~nodes script with
  | Some (prefix, violations) ->
    Format.fprintf ppf "violation after %d transition(s):@."
      (List.length prefix);
    List.iter
      (fun v -> Format.fprintf ppf "  %a@." Repro_check.Snapshot.pp_violation v)
      violations
  | None ->
    Format.fprintf ppf "replay completed with no violations@.";
    exit 1

let mcheck_replay_cmd =
  let file_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Transition script to replay.")
  in
  let nodes_t =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Replicas.")
  in
  let mutate_t =
    Arg.(
      value & flag
      & info [ "mutate" ] ~doc:"Replay against the seeded quorum mutation.")
  in
  Cmd.v
    (Cmd.info "mcheck-replay"
       ~doc:
         "Deterministically replay a model-checker counterexample script; \
          exits non-zero if the violation does not reproduce.")
    Term.(const mcheck_replay $ file_t $ nodes_t $ mutate_t)

let spec () =
  (* The Figure 4 table as lib/check/spec.ml declares it — the same
     table the online checker enforces and the spec-drift analysis
     (dune build @analyze) diffs the engine against. *)
  Format.fprintf ppf "Figure 4 engine_state transitions (lib/check/spec.ml):@.";
  List.iter
    (fun (from_, target) ->
      Format.fprintf ppf "  %-16s -> %s@."
        (match from_ with
        | Some s -> Repro_check.Spec.state_name s
        | None -> "*")
        (Repro_check.Spec.state_name target))
    Repro_check.Spec.edges;
  Format.fprintf ppf "(%d edges over %d states; * = any state)@."
    (List.length Repro_check.Spec.edges)
    (List.length Repro_check.Spec.all_states)

let spec_cmd =
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Print the Figure 4 state-machine specification the checker and \
          the static spec-drift analysis enforce.")
    Term.(const spec $ const ())

let main_cmd =
  let doc =
    "Reproduction of 'From Total Order to Database Replication' (Amir & \
     Tutu, ICDCS 2002)."
  in
  Cmd.group (Cmd.info "replicate" ~version:"1.0.0" ~doc)
    [ scenario_cmd; nemesis_cmd; spec_cmd; mcheck_cmd; mcheck_replay_cmd ]

(* REPRO_LOG=debug|info enables engine/replica tracing on stderr. *)
let setup_logs () =
  match Sys.getenv_opt "REPRO_LOG" with
  | None -> ()
  | Some level ->
    Logs.set_level
      (match level with
      | "debug" -> Some Logs.Debug
      | "info" -> Some Logs.Info
      | _ -> Some Logs.Warning);
    Logs.set_reporter
      {
        Logs.report =
          (fun src lvl ~over k msgf ->
            msgf (fun ?header:_ ?tags:_ fmt ->
                Format.kfprintf
                  (fun _ ->
                    over ();
                    k ())
                  Format.err_formatter
                  ("[%s %s] " ^^ fmt ^^ "@.")
                  (Logs.level_to_string (Some lvl))
                  (Logs.Src.name src)));
      }

let () =
  setup_logs ();
  exit (Cmd.eval main_cmd)
