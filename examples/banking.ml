(* A small banking service on the replication engine, written against
   client sessions: sequential per-client transactions, stored-procedure
   transfers, read-your-writes balance checks — while the cluster loses a
   replica and a partition mid-run.

   Run with:  dune exec examples/banking.exe *)

module Sim = Repro_sim
open Repro_net
open Repro_db
open Repro_core
open Repro_harness

let () =
  let w = World.make ~seed:42 ~n:5 () in
  let sim = World.sim w in
  let say fmt =
    Format.printf
      ("[%7.0fms] " ^^ fmt ^^ "@.")
      (Sim.Time.to_ms (Sim.Engine.now sim))
  in
  World.run w ~ms:1000.;

  (* Each teller is a session; ids 1-3 start at replicas 0-2. *)
  let teller id =
    Client.create ~sim ~id ~replicas:(fun () -> World.replicas w) ()
  in
  let alice_teller = teller 1
  and bob_teller = teller 2
  and audit_teller = teller 3 in

  (* Open accounts. *)
  Client.exec alice_teller
    (Action.Update [ Op.Set ("acct:alice", Value.Int 1000) ])
    ~k:(fun _ -> say "alice's account opened with 1000");
  Client.exec bob_teller
    (Action.Update [ Op.Set ("acct:bob", Value.Int 200) ])
    ~k:(fun _ -> say "bob's account opened with 200");
  World.run w ~ms:300.;

  (* Transfers are active transactions: the debit check runs at ordering
     time at every replica, so an overdraft is refused identically
     everywhere. *)
  let transfer session ~from_acct ~to_acct ~amount =
    Client.exec session
      (Action.Active
         {
           proc = "transfer";
           args = [ Value.Text from_acct; Value.Text to_acct; Value.Int amount ];
         })
      ~k:(fun resp ->
        say "transfer %s -> %s of %d: %s" from_acct to_acct amount
          (match resp with
          | Action.Procedure_output (Value.Int 1) -> "ok"
          | Action.Procedure_output _ -> "REFUSED"
          | r -> Format.asprintf "%a" Action.pp_response r))
  in
  transfer alice_teller ~from_acct:"acct:alice" ~to_acct:"acct:bob" ~amount:300;
  transfer bob_teller ~from_acct:"acct:bob" ~to_acct:"acct:alice" ~amount:50;
  transfer bob_teller ~from_acct:"acct:bob" ~to_acct:"acct:alice" ~amount:9999;
  World.run w ~ms:500.;

  (* Read-your-writes: the audit session's read is ordered, so it sees
     every committed transfer. *)
  Client.read audit_teller [ "acct:alice"; "acct:bob" ] ~k:(fun balances ->
      say "audit: %s"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s=%s" k
                  (match v with Some (Value.Int n) -> string_of_int n | _ -> "?"))
              balances)));
  World.run w ~ms:300.;

  (* The branch running replica 4 burns down; replica 3 gets cut off. *)
  Replica.crash (World.replica w 4);
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3 ] ];
  World.run w ~ms:1200.;
  say "replica 4 crashed, replica 3 partitioned; primary = {0,1,2}";
  transfer alice_teller ~from_acct:"acct:alice" ~to_acct:"acct:bob" ~amount:100;
  World.run w ~ms:500.;

  (* Business continues; then everything heals and converges. *)
  World.heal_and_settle w;
  World.assert_ok w ~ledgers:[];
  say "healed: every replica agrees on the ledger";
  let total =
    match
      Replica.weak_query (World.replica w 4) [ "acct:alice"; "acct:bob" ]
    with
    | [ (_, Some (Value.Int a)); (_, Some (Value.Int b)) ] -> a + b
    | _ -> -1
  in
  say "conservation check: alice + bob = %d (expected 1200)" total;
  assert (total = 1200);
  Format.printf "banking OK@."
