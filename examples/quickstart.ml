(* Quickstart: a three-replica cluster, a few transactions, and the
   consistency guarantees in action.

   Run with:  dune exec examples/quickstart.exe *)

module Sim = Repro_sim
open Repro_db
open Repro_core

let () =
  (* 1. Build a cluster: a simulated LAN, three replicas, one shared
        replicated database. *)
  let nodes = [ 0; 1; 2 ] in
  let cluster = Replica.make_cluster ~nodes () in
  let replicas =
    List.map
      (fun node ->
        let r = Replica.create ~cluster ~node ~role:(Replica.Static nodes) () in
        Replica.start r;
        (node, r))
      nodes
  in
  let sim = Replica.cluster_sim cluster in
  let run_ms ms =
    Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now sim) ~span:(Sim.Time.of_ms ms)) sim
  in
  let r0 = List.assoc 0 replicas
  and r1 = List.assoc 1 replicas
  and r2 = List.assoc 2 replicas in

  (* 2. Wait for the primary component to install. *)
  run_ms 1000.;
  Format.printf "replica states: %a %a %a@." Types.pp_engine_state
    (Replica.state r0) Types.pp_engine_state (Replica.state r1)
    Types.pp_engine_state (Replica.state r2);

  (* 3. Submit transactions from different replicas.  Responses arrive
        when the action is globally ordered (one-copy serializable). *)
  Replica.submit r0
    (Action.Update [ Op.Set ("alice", Value.Int 100) ])
    ~on_response:(fun resp ->
      Format.printf "deposit committed: %a@." Action.pp_response resp);
  Replica.submit r1
    (Action.Active
       {
         proc = "transfer";
         args = [ Value.Text "alice"; Value.Text "bob"; Value.Int 40 ];
       })
    ~on_response:(fun resp ->
      Format.printf "transfer result: %a@." Action.pp_response resp);
  run_ms 200.;

  (* 4. Query through a third replica: every replica applied the same
        actions in the same order. *)
  Replica.submit r2
    (Action.Query [ "alice"; "bob" ])
    ~on_response:(fun resp ->
      Format.printf "balances at replica 2: %a@." Action.pp_response resp);
  run_ms 200.;
  List.iter
    (fun (node, r) ->
      Format.printf "replica %d database: %a | digest %d@." node
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k Value.pp v))
        (Database.bindings (Replica.database r))
        (Database.digest (Replica.database r)))
    replicas;

  (* 5. The engine survives a crash transparently. *)
  Replica.crash r2;
  Replica.submit r0
    (Action.Update [ Op.Add ("alice", -10) ])
    ~on_response:(fun _ -> Format.printf "update while replica 2 is down@.");
  run_ms 1000.;
  Replica.recover r2;
  run_ms 2000.;
  Format.printf "after recovery, replica 2 digest = %d (others %d)@."
    (Database.digest (Replica.database r2))
    (Database.digest (Replica.database r0));
  assert (Database.digest (Replica.database r2) = Database.digest (Replica.database r0));
  Format.printf "quickstart OK@."
