(* Partition and healing: the heart of the paper.

   Five replicas split into a majority {0,1,2} and a minority {3,4}.
   The majority forms the next primary component (dynamic linear voting)
   and keeps committing; the minority keeps *accepting* actions but only
   as red (tentatively ordered) knowledge.  When the network heals, one
   exchange round propagates everything and the red actions take their
   place in the global order — no per-action acknowledgements anywhere.

   Run with:  dune exec examples/partition_healing.exe *)

module Sim = Repro_sim
open Repro_net
open Repro_db
open Repro_core
open Repro_harness

let () =
  let w = World.make ~n:5 () in
  let sim = World.sim w in
  let now () = Sim.Time.to_ms (Sim.Engine.now sim) in
  let say fmt = Format.printf ("[%7.0fms] " ^^ fmt ^^ "@.") (now ()) in
  World.run w ~ms:1000.;
  say "primary component installed: %d of 5 replicas in Prim"
    (List.length (List.filter Replica.in_primary (World.replicas w)));

  (* Baseline commits. *)
  let committed = ref [] in
  let submit node key v =
    Replica.submit (World.replica w node)
      (Action.Update [ Op.Set (key, Value.Int v) ])
      ~on_response:(fun _ -> committed := key :: !committed)
  in
  submit 0 "pre-partition" 1;
  World.run w ~ms:300.;
  say "committed before the partition: %d action(s)" (List.length !committed);

  (* The network splits. *)
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  say "after partition: majority in Prim? %b %b %b | minority in Prim? %b %b"
    (Replica.in_primary (World.replica w 0))
    (Replica.in_primary (World.replica w 1))
    (Replica.in_primary (World.replica w 2))
    (Replica.in_primary (World.replica w 3))
    (Replica.in_primary (World.replica w 4));

  (* Both sides accept actions; only the majority commits. *)
  submit 1 "majority-write" 2;
  submit 4 "minority-write" 3;
  World.run w ~ms:800.;
  say "majority committed %d total; minority holds %d red action(s)"
    (List.length !committed)
    (List.length (Engine.red_actions (Replica.engine (World.replica w 4))));
  say "minority can still answer weak queries (stale but consistent): %s"
    (match Replica.weak_query (World.replica w 4) [ "pre-partition" ] with
    | [ (_, Some (Value.Int v)) ] -> string_of_int v
    | _ -> "?");
  say "...and dirty queries that see its red actions: %s"
    (match Replica.dirty_query (World.replica w 4) [ "minority-write" ] with
    | [ (_, Some (Value.Int v)) ] -> string_of_int v
    | _ -> "?");

  (* Heal.  One exchange round synchronises everyone. *)
  Topology.merge_all (World.topology w);
  World.run w ~ms:3000.;
  say "healed: all 5 in Prim? %b"
    (List.for_all Replica.in_primary (World.replicas w));
  say "minority's write now committed everywhere: %s"
    (match Replica.weak_query (World.replica w 0) [ "minority-write" ] with
    | [ (_, Some (Value.Int v)) ] -> string_of_int v
    | _ -> "?");
  World.assert_ok w ~ledgers:[];
  say "consistency checker: all properties hold";
  Format.printf "partition_healing OK@."
