(* Online reconfiguration (paper §5.1): a brand-new replica joins the
   running system through a PERSISTENT_JOIN ordered in the global action
   stream and a snapshot transfer from its representative; later a
   replica leaves permanently through a PERSISTENT_LEAVE.

   Run with:  dune exec examples/dynamic_replicas.exe *)

module Sim = Repro_sim
open Repro_db
open Repro_core
open Repro_harness

let () =
  let w = World.make ~n:3 () in
  let sim = World.sim w in
  let say fmt =
    Format.printf
      ("[%7.0fms] " ^^ fmt ^^ "@.")
      (Sim.Time.to_ms (Sim.Engine.now sim))
  in
  World.run w ~ms:1000.;

  (* Populate some state the newcomer will have to inherit. *)
  for i = 1 to 50 do
    World.submit_update w ~node:(i mod 3) ~key:(Printf.sprintf "item%d" i) i
  done;
  World.run w ~ms:1000.;
  say "3 replicas, %d actions in the global order"
    (Engine.green_count (Replica.engine (World.replica w 0)));

  (* A new replica (node 7) appears, sponsored by replica 1.  The sponsor
     announces it with a PERSISTENT_JOIN; when that action turns green,
     the sponsor snapshots its database and transfers it; only then does
     the newcomer enter the replicated group. *)
  let joiner = World.add_joiner w ~node:7 ~sponsors:[ 1 ] in
  say "node 7 requested to join via sponsor 1";
  World.run w ~ms:4000.;
  say "joiner ready=%b, in primary=%b, database digest %d (cluster %d)"
    (Replica.is_ready joiner) (Replica.in_primary joiner)
    (Database.digest (Replica.database joiner))
    (Database.digest (Replica.database (World.replica w 0)));
  assert (Replica.is_ready joiner);

  (* The newcomer is a full citizen: it orders new actions... *)
  Replica.submit joiner
    (Action.Update [ Op.Set ("from-the-new-replica", Value.Int 7) ])
    ~on_response:(fun _ -> say "the joiner's own action committed");
  World.run w ~ms:500.;

  (* ...and counts for quorum.  Everyone's membership view includes it. *)
  List.iter
    (fun r ->
      say "replica %d knows servers: %s" (Replica.node r)
        (Format.asprintf "%a" Repro_net.Node_id.pp_set
           (Engine.known_servers (Replica.engine r))))
    (World.replicas w);

  (* Now replica 2 retires permanently. *)
  Replica.leave (World.replica w 2);
  World.run w ~ms:2000.;
  say "replica 2 left; survivors know: %s"
    (Format.asprintf "%a" Repro_net.Node_id.pp_set
       (Engine.known_servers (Replica.engine (World.replica w 0))));
  say "survivors still in primary: %b"
    (List.for_all
       (fun n -> Replica.in_primary (World.replica w n))
       [ 0; 1; 7 ]);
  World.assert_ok w ~ledgers:[];
  say "consistency checker: all properties hold";
  Format.printf "dynamic_replicas OK@."
