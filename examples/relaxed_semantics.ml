(* Application semantics beyond strict one-copy serializability
   (paper §6): weak queries, dirty queries, commutative updates
   (an inventory), active transactions (stored procedures) and
   two-action interactive transactions (optimistic booking).

   Run with:  dune exec examples/relaxed_semantics.exe *)

module Sim = Repro_sim
open Repro_net
open Repro_db
open Repro_core
open Repro_harness

let () =
  let w = World.make ~n:5 () in
  let sim = World.sim w in
  let say fmt =
    Format.printf
      ("[%7.0fms] " ^^ fmt ^^ "@.")
      (Sim.Time.to_ms (Sim.Engine.now sim))
  in
  World.run w ~ms:1000.;

  (* Seed an inventory and a bookable seat. *)
  Replica.submit (World.replica w 0)
    (Action.Update
       [ Op.Set ("widgets", Value.Int 10); Op.Set ("seat-1A", Value.Text "free") ])
    ~on_response:(fun _ -> ());
  World.run w ~ms:300.;

  (* -------- Interactive transaction: read, think, conditionally write. *)
  let book replica ~name =
    (* First action: read the seat (a query, answerable immediately). *)
    let seen = Replica.weak_query replica [ "seat-1A" ] in
    match seen with
    | [ (_, Some (Value.Text "free")) ] ->
      (* Second action: an update valid only if the read still holds. *)
      Replica.submit replica
        (Action.Interactive
           {
             expected = [ ("seat-1A", Some (Value.Text "free")) ];
             updates = [ Op.Set ("seat-1A", Value.Text name) ];
           })
        ~on_response:(fun resp ->
          say "%s booking: %a" name Action.pp_response resp)
    | _ -> say "%s saw the seat already taken" name
  in
  book (World.replica w 1) ~name:"carol";
  book (World.replica w 2) ~name:"dave";
  World.run w ~ms:300.;
  say "seat ended as: %s"
    (match Replica.weak_query (World.replica w 0) [ "seat-1A" ] with
    | [ (_, Some (Value.Text who)) ] -> who
    | _ -> "?");

  (* -------- Partition: the minority keeps serving. *)
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  say "partitioned; replica 4 is out of the primary component";

  (* Strict updates would block in the minority, but commutative
     inventory arithmetic can proceed: order is irrelevant, states
     converge on merge. *)
  Replica.submit (World.replica w 4) ~semantics:Action.Commutative
    (Action.Update [ Op.Add ("widgets", -3) ])
    ~on_response:(fun _ -> say "minority sale of 3 widgets acknowledged locally");
  Replica.submit (World.replica w 0) ~semantics:Action.Commutative
    (Action.Update [ Op.Add ("widgets", 5) ])
    ~on_response:(fun _ -> say "majority restock of 5 widgets committed");
  World.run w ~ms:500.;

  (* Weak vs dirty reads in the minority. *)
  let show q label =
    say "%s sees widgets = %s" label
      (match q with
      | [ (_, Some (Value.Int v)) ] -> string_of_int v
      | _ -> "?")
  in
  show (Replica.weak_query (World.replica w 4) [ "widgets" ]) "weak query (green state)";
  show (Replica.dirty_query (World.replica w 4) [ "widgets" ]) "dirty query (green+red)";

  (* Timestamped last-writer-wins updates (location tracking). *)
  Replica.submit (World.replica w 4) ~semantics:Action.Commutative
    (Action.Update [ Op.Set_if_newer ("truck-7", Value.Text "depot", 200) ])
    ~on_response:(fun _ -> ());
  Replica.submit (World.replica w 1) ~semantics:Action.Commutative
    (Action.Update [ Op.Set_if_newer ("truck-7", Value.Text "highway", 100) ])
    ~on_response:(fun _ -> ());
  World.run w ~ms:500.;

  (* Heal: everything converges regardless of interleaving. *)
  Topology.merge_all (World.topology w);
  World.run w ~ms:3000.;
  show (Replica.weak_query (World.replica w 0) [ "widgets" ]) "after merge, everyone";
  say "truck-7 position (timestamp semantics): %s"
    (match Replica.weak_query (World.replica w 2) [ "truck-7" ] with
    | [ (_, Some (Value.Text loc)) ] -> loc
    | _ -> "?");
  World.assert_ok w ~ledgers:[];
  say "consistency checker: all properties hold";
  Format.printf "relaxed_semantics OK@."
