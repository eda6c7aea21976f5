(* Tests of the database substrate: operations, snapshots, digests,
   procedures, the action executor, and determinism/commutativity
   properties. *)

open Repro_db

let value = Alcotest.testable Value.pp Value.equal

(* One registry shared by the executor tests below; tests that need
   isolation (test_registry_isolation) build their own. *)
let procs = Procedure.builtins ()

let test_set_get () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("a", Value.Int 1); Op.Set ("b", Value.Text "x") ];
  Alcotest.(check (option value)) "a" (Some (Value.Int 1)) (Database.get db "a");
  Alcotest.(check (option value)) "b" (Some (Value.Text "x")) (Database.get db "b");
  Alcotest.(check (option value)) "missing" None (Database.get db "c")

let test_add_remove () =
  let db = Database.create () in
  Database.apply db [ Op.Add ("n", 5); Op.Add ("n", -2) ];
  Alcotest.(check (option value)) "add accumulates" (Some (Value.Int 3))
    (Database.get db "n");
  Database.apply db [ Op.Remove "n" ];
  Alcotest.(check (option value)) "removed" None (Database.get db "n");
  Database.apply db [ Op.Add ("n", 7) ];
  Alcotest.(check (option value)) "add from missing" (Some (Value.Int 7))
    (Database.get db "n")

let test_set_if_newer () =
  let db = Database.create () in
  Database.apply db [ Op.Set_if_newer ("loc", Value.Text "rome", 10) ];
  Database.apply db [ Op.Set_if_newer ("loc", Value.Text "oslo", 5) ];
  Alcotest.(check (option value)) "older ts loses" (Some (Value.Text "rome"))
    (Database.get db "loc");
  Database.apply db [ Op.Set_if_newer ("loc", Value.Text "lima", 20) ];
  Alcotest.(check (option value)) "newer ts wins" (Some (Value.Text "lima"))
    (Database.get db "loc")

let test_snapshot_restore () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("k", Value.Int 1) ];
  let snap = Database.snapshot db in
  Database.apply db [ Op.Set ("k", Value.Int 2) ];
  let db2 = Database.of_snapshot snap in
  Alcotest.(check (option value)) "snapshot frozen" (Some (Value.Int 1))
    (Database.get db2 "k");
  Database.restore db snap;
  Alcotest.(check (option value)) "restore rewinds" (Some (Value.Int 1))
    (Database.get db "k")

let test_digest_equality () =
  let a = Database.create () and b = Database.create () in
  Database.apply a [ Op.Set ("x", Value.Int 1); Op.Set ("y", Value.Int 2) ];
  Database.apply b [ Op.Set ("y", Value.Int 2) ];
  Database.apply b [ Op.Set ("x", Value.Int 1) ];
  Alcotest.(check int) "same state same digest" (Database.digest a)
    (Database.digest b);
  Database.apply b [ Op.Set ("x", Value.Int 9) ];
  Alcotest.(check bool) "diverged digest differs" true
    (Database.digest a <> Database.digest b)

let test_procedure_transfer () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("alice", Value.Int 100) ];
  let action =
    Action.make ~server:0 ~index:1
      (Action.Active
         {
           proc = "transfer";
           args = [ Value.Text "alice"; Value.Text "bob"; Value.Int 30 ];
         })
  in
  (match Executor.execute ~procs db action with
  | Action.Procedure_output (Value.Int 1) -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r);
  Alcotest.(check (option value)) "debited" (Some (Value.Int 70))
    (Database.get db "alice");
  Alcotest.(check (option value)) "credited" (Some (Value.Int 30))
    (Database.get db "bob");
  (* Insufficient funds refuse deterministically. *)
  let too_much =
    Action.make ~server:0 ~index:2
      (Action.Active
         {
           proc = "transfer";
           args = [ Value.Text "alice"; Value.Text "bob"; Value.Int 1000 ];
         })
  in
  (match Executor.execute ~procs db too_much with
  | Action.Procedure_output (Value.Int 0) -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r);
  Alcotest.(check (option value)) "unchanged" (Some (Value.Int 70))
    (Database.get db "alice")

let test_interactive_abort () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("seat", Value.Text "free") ];
  let book expected =
    Action.make ~server:0 ~index:1
      (Action.Interactive
         {
           expected = [ ("seat", Some (Value.Text expected)) ];
           updates = [ Op.Set ("seat", Value.Text "taken") ];
         })
  in
  (match Executor.execute ~procs db (book "free") with
  | Action.Committed _ -> ()
  | r -> Alcotest.failf "expected commit, got %a" Action.pp_response r);
  (* A second identical interactive action must abort: the read is stale. *)
  (match Executor.execute ~procs db (book "free") with
  | Action.Aborted -> ()
  | r -> Alcotest.failf "expected abort, got %a" Action.pp_response r);
  Alcotest.(check (option value)) "still taken" (Some (Value.Text "taken"))
    (Database.get db "seat")

let test_executor_query () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("q", Value.Int 9) ];
  let a = Action.make ~server:1 ~index:1 (Action.Query [ "q"; "nope" ]) in
  match Executor.execute ~procs db a with
  | Action.Committed [ ("q", Some (Value.Int 9)); ("nope", None) ] -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r

let test_read_write_action () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("c", Value.Int 1) ];
  let a =
    Action.make ~server:1 ~index:1
      (Action.Read_write ([ "c" ], [ Op.Add ("c", 1) ]))
  in
  (match Executor.execute ~procs db a with
  | Action.Committed [ ("c", Some (Value.Int 1)) ] -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r);
  Alcotest.(check (option value)) "updated after read" (Some (Value.Int 2))
    (Database.get db "c")

let prop_commutative_ops_converge =
  QCheck.Test.make ~name:"commutative ops converge under permutation" ~count:200
    QCheck.(list (pair (int_bound 3) (int_range (-10) 10)))
    (fun pairs ->
      let ops =
        List.map (fun (k, n) -> Op.Add (Printf.sprintf "k%d" k, n)) pairs
      in
      let a = Database.create () and b = Database.create () in
      Database.apply a ops;
      Database.apply b (List.rev ops);
      Database.digest a = Database.digest b)

(* The pairwise law op.mli states — and the §6 convergence of relaxed
   updates rests on: whenever two ops write distinct keys or are both
   [Add]/[Set_if_newer], applying [a; b] and [b; a] from the same start
   state (itself randomly built, so counter and register key classes
   both occur) converges to the same database. *)
let commuting a b =
  let relaxed = function
    | Op.Add _ | Op.Set_if_newer _ -> true
    | Op.Set _ | Op.Remove _ -> false
  in
  Op.key a <> Op.key b || (relaxed a && relaxed b)

let prop_op_pairs_commute =
  let gen_op =
    QCheck.Gen.(
      let key = map (Printf.sprintf "k%d") (int_bound 2) in
      oneof
        [
          map2 (fun k n -> Op.Add (k, n)) key (int_range (-9) 9);
          map3
            (fun k n ts -> Op.Set_if_newer (k, Value.Int n, ts))
            key (int_range 0 9) (int_range 1 6);
          map2 (fun k n -> Op.Set (k, Value.Int n)) key (int_range 0 9);
          map (fun k -> Op.Remove k) key;
        ])
  in
  let print (prefix, (a, b)) =
    Format.asprintf "%a / %a after prefix [%a]" Op.pp a Op.pp b
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         Op.pp)
      prefix
  in
  QCheck.Test.make ~name:"commuting op pairs really commute" ~count:500
    (QCheck.make ~print
       QCheck.Gen.(pair (list_size (int_bound 6) gen_op) (pair gen_op gen_op)))
    (fun (prefix, (a, b)) ->
      QCheck.assume (commuting a b);
      let run ops =
        let db = Database.create () in
        Database.apply db prefix;
        Database.apply db ops;
        Database.digest db
      in
      run [ a; b ] = run [ b; a ])

(* The executor's procedure-trace hook reports the actual key accesses
   (sorted, deduplicated) the runtime footprint validator consumes. *)
let test_executor_trace () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("alice", Value.Int 100) ];
  let action =
    Action.make ~server:0 ~index:1
      (Action.Active
         {
           proc = "transfer";
           args = [ Value.Text "alice"; Value.Text "bob"; Value.Int 30 ];
         })
  in
  let traces = ref [] in
  (match
     Executor.execute
       ~on_procedure:(fun tr -> traces := tr :: !traces)
       ~procs db action
   with
  | Action.Procedure_output (Value.Int 1) -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r);
  match !traces with
  | [ tr ] ->
    Alcotest.(check string) "procedure name" "transfer" tr.Executor.t_proc;
    Alcotest.(check (list string)) "actual reads" [ "alice" ]
      tr.Executor.t_reads;
    Alcotest.(check (list string)) "actual writes" [ "alice"; "bob" ]
      tr.Executor.t_writes
  | l -> Alcotest.failf "expected one trace, got %d" (List.length l)

let prop_executor_deterministic =
  QCheck.Test.make ~name:"execution is deterministic" ~count:100
    QCheck.(list (pair (int_bound 5) (int_range (-5) 5)))
    (fun pairs ->
      let actions =
        List.mapi
          (fun i (k, n) ->
            Action.make ~server:0 ~index:(i + 1)
              (Action.Update [ Op.Set (Printf.sprintf "k%d" k, Value.Int n) ]))
          pairs
      in
      let run () =
        let db = Database.create () in
        List.iter (fun a -> ignore (Executor.execute ~procs db a)) actions;
        Database.digest db
      in
      run () = run ())

let test_procedure_cas () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("cfg", Value.Text "v1") ];
  let cas expected desired =
    Action.make ~server:0 ~index:1
      (Action.Active
         { proc = "cas"; args = [ Value.Text "cfg"; expected; desired ] })
  in
  (match Executor.execute ~procs db (cas (Value.Text "v1") (Value.Text "v2")) with
  | Action.Procedure_output (Value.Int 1) -> ()
  | r -> Alcotest.failf "cas should succeed: %a" Action.pp_response r);
  (match Executor.execute ~procs db (cas (Value.Text "v1") (Value.Text "v3")) with
  | Action.Procedure_output (Value.Int 0) -> ()
  | r -> Alcotest.failf "stale cas should fail: %a" Action.pp_response r);
  Alcotest.(check (option value)) "value is v2" (Some (Value.Text "v2"))
    (Database.get db "cfg")

let test_registry_isolation () =
  (* Two engines in one process must not observe each other's stored
     procedures — the bug the ambient-state analysis caught in the old
     process-wide registry. *)
  let a = Procedure.builtins () and b = Procedure.builtins () in
  Procedure.register a "boost" (fun _db _args ->
      { Procedure.updates = []; output = Value.Int 42 });
  Alcotest.(check bool) "a sees its registration" true
    (Procedure.find a "boost" <> None);
  Alcotest.(check bool) "b does not" true (Procedure.find b "boost" = None);
  Alcotest.(check (list string))
    "known lists this registry only"
    [ "boost"; "cas"; "restock"; "transfer" ]
    (Procedure.known a);
  let db = Database.create () in
  let act =
    Action.make ~server:0 ~index:1 (Action.Active { proc = "boost"; args = [] })
  in
  (match Executor.execute ~procs:a db act with
  | Action.Procedure_output (Value.Int 42) -> ()
  | r -> Alcotest.failf "unexpected %a" Action.pp_response r);
  match Executor.execute ~procs:b db act with
  | Action.Aborted -> ()
  | r -> Alcotest.failf "expected abort, got %a" Action.pp_response r

let test_snapshot_size_grows () =
  let db = Database.create () in
  let s0 = Database.snapshot_size (Database.snapshot db) in
  Database.apply db [ Op.Set ("key", Value.Text (String.make 1000 'a')) ];
  let s1 = Database.snapshot_size (Database.snapshot db) in
  Alcotest.(check bool) "size reflects content" true (s1 > s0 + 1000)

let test_bindings_sorted () =
  let db = Database.create () in
  Database.apply db
    [ Op.Set ("c", Value.Int 3); Op.Set ("a", Value.Int 1); Op.Set ("b", Value.Int 2) ];
  Alcotest.(check (list string)) "key order" [ "a"; "b"; "c" ]
    (List.map fst (Database.bindings db))

(* The persistent-map store [Database] replaced, kept as the oracle for
   the version tree: every snapshot is the map value itself. *)
module Model = struct
  module Smap = Map.Make (String)

  type cell = { value : Value.t; ts : int }
  type t = { mutable map : cell Smap.t; mutable version : int }

  let apply_op map = function
    | Op.Set (k, v) ->
      let ts = match Smap.find_opt k map with Some c -> c.ts | None -> 0 in
      Smap.add k { value = v; ts } map
    | Op.Add (k, n) -> (
      match Smap.find_opt k map with
      | Some { ts; _ } when ts > 0 -> map
      | Some { value = Value.Int v; ts } ->
        Smap.add k { value = Value.Int (v + n); ts } map
      | Some { value = Value.Text _; ts } ->
        Smap.add k { value = Value.Int n; ts } map
      | None -> Smap.add k { value = Value.Int n; ts = 0 } map)
    | Op.Remove k -> Smap.remove k map
    | Op.Set_if_newer (k, v, ts) ->
      let stored = Smap.find_opt k map in
      let stored_ts = match stored with Some c -> c.ts | None -> 0 in
      if ts > stored_ts then Smap.add k { value = v; ts } map
      else if ts = stored_ts && ts > 0 then
        match stored with
        | Some c when Value.compare v c.value > 0 ->
          Smap.add k { value = v; ts } map
        | _ -> map
      else map

  let apply t ops =
    t.map <- List.fold_left apply_op t.map ops;
    t.version <- t.version + 1

  let digest map =
    Smap.fold (fun k c acc -> acc + Hashtbl.hash (k, c.value, c.ts)) map 0

  let bindings map = Smap.bindings map |> List.map (fun (k, c) -> (k, c.value))
end

type cmd =
  | Apply of int * Op.t list
  | Snapshot of int
  | Copy of int * int  (* source handle, destination slot *)
  | Of_snapshot of int * int  (* snapshot, destination slot *)
  | Restore of int * int  (* handle, snapshot *)
  | Get of int * string
  | Digest of int
  | Bindings of int
  | Read_snapshot of int

let pp_cmd ppf = function
  | Apply (h, ops) ->
    Format.fprintf ppf "apply h%d [%a]" h
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Op.pp)
      ops
  | Snapshot h -> Format.fprintf ppf "snapshot h%d" h
  | Copy (h, d) -> Format.fprintf ppf "h%d := copy h%d" d h
  | Of_snapshot (s, d) -> Format.fprintf ppf "h%d := of_snapshot s%d" d s
  | Restore (h, s) -> Format.fprintf ppf "restore h%d s%d" h s
  | Get (h, k) -> Format.fprintf ppf "get h%d %s" h k
  | Digest h -> Format.fprintf ppf "digest h%d" h
  | Bindings h -> Format.fprintf ppf "bindings h%d" h
  | Read_snapshot s -> Format.fprintf ppf "read s%d" s

(* Programs over [keys] keys, with up to [batch] ops per apply and
   removes weighted [removes] against 3 sets. *)
let gen_cmds ~keys ~batch ~removes =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "k%d") (int_bound (keys - 1)) in
  let op =
    frequency
      [
        (3, map2 (fun k n -> Op.Set (k, Value.Int n)) key (int_bound 9));
        (2, map2 (fun k n -> Op.Add (k, n)) key (int_range (-5) 5));
        (removes, map (fun k -> Op.Remove k) key);
        ( 1,
          map3
            (fun k n ts -> Op.Set_if_newer (k, Value.Int n, ts))
            key (int_bound 9) (int_range 1 4) );
      ]
  in
  let handle = int_bound 2 and snap = int_bound 7 in
  list_size (int_range 1 40)
    (frequency
       [
         (6, map2 (fun h ops -> Apply (h, ops)) handle (list_size (int_bound batch) op));
         (3, map (fun h -> Snapshot h) handle);
         (2, map2 (fun h d -> Copy (h, d)) handle handle);
         (1, map2 (fun s d -> Of_snapshot (s, d)) snap handle);
         (1, map2 (fun h s -> Restore (h, s)) handle snap);
         (2, map2 (fun h k -> Get (h, k)) handle key);
         (1, map (fun h -> Digest h) handle);
         (1, map (fun h -> Bindings h) handle);
         (2, map (fun s -> Read_snapshot s) snap);
       ])

(* Random programs over three handles that share or split version trees
   through [copy], [of_snapshot] and [restore]; every read — of a live
   handle or of an old snapshot, after writes through the other handles
   of its tree forced reroots — must agree with the map oracle. *)
let prop_versions_match ~name ~count gen =
  let print cmds =
    Format.asprintf "@[<v>%a@]" (Format.pp_print_list pp_cmd) cmds
  in
  QCheck.Test.make ~name ~count (QCheck.make ~print gen) (fun cmds ->
      let handles =
        Array.init 3 (fun _ ->
            (Database.create (), { Model.map = Model.Smap.empty; version = 0 }))
      in
      let snaps = ref [||] in
      let nth_snap s =
        let n = Array.length !snaps in
        if n = 0 then None else Some !snaps.(s mod n)
      in
      let same_bindings db map = Database.bindings db = Model.bindings map in
      let step = function
        | Apply (h, ops) ->
          let db, m = handles.(h) in
          Database.apply db ops;
          Model.apply m ops;
          true
        | Snapshot h ->
          let db, m = handles.(h) in
          snaps := Array.append !snaps [| (Database.snapshot db, m.map, m.version) |];
          true
        | Copy (h, d) ->
          let db, m = handles.(h) in
          handles.(d) <- (Database.copy db, { m with map = m.map });
          true
        | Of_snapshot (s, d) -> (
          match nth_snap s with
          | None -> true
          | Some (snap, map, version) ->
            handles.(d) <- (Database.of_snapshot snap, { Model.map; version });
            true)
        | Restore (h, s) -> (
          match nth_snap s with
          | None -> true
          | Some (snap, map, version) ->
            let db, m = handles.(h) in
            Database.restore db snap;
            m.map <- map;
            m.version <- version;
            true)
        | Get (h, k) ->
          let db, m = handles.(h) in
          Database.get db k
          = Option.map (fun c -> c.Model.value) (Model.Smap.find_opt k m.map)
          && Database.timestamp db k
             = (match Model.Smap.find_opt k m.map with Some c -> c.ts | None -> 0)
        | Digest h ->
          let db, m = handles.(h) in
          Database.digest db = Model.digest m.map
          && Database.size db = Model.Smap.cardinal m.map
          && Database.version db = m.version
        | Bindings h ->
          let db, m = handles.(h) in
          same_bindings db m.map
        | Read_snapshot s -> (
          match nth_snap s with
          | None -> true
          | Some (snap, map, version) ->
            let db = Database.of_snapshot snap in
            same_bindings db map && Database.version db = version)
      in
      List.for_all step cmds
      && Array.for_all (fun (db, m) -> same_bindings db m.Model.map) handles
      && Array.for_all
           (fun (snap, map, _) -> same_bindings (Database.of_snapshot snap) map)
           !snaps)

let prop_versions_match_map_model =
  prop_versions_match ~name:"version tree matches the persistent-map model"
    ~count:1000 (gen_cmds ~keys:5 ~batch:3 ~removes:1)

(* The same oracle over 96 keys with removes as frequent as sets: tables
   grow past their first capacity, rebuild away removed keys, and a key
   removed and bound again inside one capture reuses its slot. *)
let prop_wide_versions_match_map_model =
  prop_versions_match ~name:"wide version tree matches the persistent-map model"
    ~count:300 (gen_cmds ~keys:96 ~batch:24 ~removes:3)

(* The reroot round trip spelled out: write through a copy, then
   through the original, then read a snapshot taken before both. *)
let test_reroot_round_trip () =
  let db = Database.create () in
  Database.apply db [ Op.Set ("a", Value.Int 1); Op.Set ("b", Value.Int 1) ];
  let old = Database.snapshot db in
  Database.apply db [ Op.Set ("a", Value.Int 2) ];
  let c = Database.copy db in
  Database.apply c [ Op.Set ("b", Value.Int 3); Op.Remove "a" ];
  Database.apply db [ Op.Add ("b", 10) ];
  let get db k = Database.get db k in
  Alcotest.(check (list (pair string value)))
    "old snapshot" [ ("a", Value.Int 1); ("b", Value.Int 1) ]
    (Database.bindings (Database.of_snapshot old));
  Alcotest.(check (option value)) "copy keeps its remove" None (get c "a");
  Alcotest.(check (option value)) "copy keeps its set" (Some (Value.Int 3)) (get c "b");
  Alcotest.(check (option value)) "original a" (Some (Value.Int 2)) (get db "a");
  Alcotest.(check (option value)) "original b" (Some (Value.Int 11)) (get db "b");
  Database.restore c old;
  Database.apply c [ Op.Set ("a", Value.Int 7) ];
  Alcotest.(check (option value)) "restored copy writes its own table"
    (Some (Value.Int 2)) (get db "a")

(* A held snapshot pins the undo sets between it and the live version.
   A capture records at most one entry per key, so with 16 keys the
   snapshot held across 50,000 writes and 25 further captures stays
   linear in keys + captures (about 5,500 words); one entry per write
   would pin all 50,000 writes (about 650,000 words). *)
let test_retained_snapshot_bounded () =
  let keys = 16 and writes = 50_000 and every = 2_000 in
  let key i = Printf.sprintf "k%d" (i mod keys) in
  let db = Database.create () in
  Database.apply db (List.init keys (fun i -> Op.Set (key i, Value.Int 0)));
  let held = Database.snapshot db in
  for i = 1 to writes do
    Database.apply db [ Op.Set (key i, Value.Int i) ];
    if i mod every = 0 then ignore (Database.snapshot db)
  done;
  let captures = writes / every in
  let words = Obj.reachable_words (Obj.repr held) in
  if words > 200 * (keys + captures) then
    Alcotest.failf "held snapshot reaches %d words (bound %d)" words
      (200 * (keys + captures));
  Alcotest.(check bool) "held snapshot still reads its version" true
    (List.for_all
       (fun (_, v) -> Value.equal v (Value.Int 0))
       (Database.bindings (Database.of_snapshot held)))

(* Minor words [f] allocates. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The write path finds a key's slot once and rewrites it in place: a
   write with no capture pending allocates nothing beyond the op, the
   first write of a key after a capture allocates its undo entry (five
   words: key, value, ts and the rest of the list), a second write of
   the key nothing, and a read only the option it returns. *)
let test_write_path_allocation () =
  let db = Database.create () in
  Database.apply db (List.init 100 (fun i -> Op.Set (Printf.sprintf "k%d" i, Value.Int i)));
  let v = Value.Int 7 and ops = [ Op.Set ("k42", Value.Int 8) ] in
  let set = [ Op.Set ("k42", v) ] in
  Alcotest.(check (float 0.)) "set, no capture pending" 0.
    (words (fun () -> Database.apply db set));
  ignore (Database.snapshot db);
  Alcotest.(check (float 0.)) "first set after a capture: one undo entry" 5.
    (words (fun () -> Database.apply db ops));
  Alcotest.(check (float 0.)) "second set of the key" 0.
    (words (fun () -> Database.apply db set));
  Alcotest.(check (float 0.)) "get of a present key: its option" 2.
    (words (fun () -> ignore (Sys.opaque_identity (Database.get db "k42"))));
  Alcotest.(check (option value)) "the last write holds" (Some v) (Database.get db "k42")

let prop_value_compare_total_order =
  QCheck.Test.make ~name:"value comparison is antisymmetric" ~count:200
    QCheck.(pair (pair bool small_int) (pair bool small_int))
    (fun ((ba, na), (bb, nb)) ->
      let v b n = if b then Value.Int n else Value.Text (string_of_int n) in
      let a = v ba na and b = v bb nb in
      compare (Value.compare a b) 0 = -compare (Value.compare b a) 0)

let test_action_id_order () =
  let open Action.Id in
  Alcotest.(check bool) "server major" true
    (compare { server = 1; index = 9 } { server = 2; index = 1 } < 0);
  Alcotest.(check bool) "index minor" true
    (compare { server = 1; index = 1 } { server = 1; index = 2 } < 0);
  Alcotest.(check bool) "equal" true
    (equal { server = 3; index = 4 } { server = 3; index = 4 })

(* [Action.Id.hash] feeds every action-keyed table on the delivery
   path.  Two shapes that occur: runs of consecutive indices from many
   creators (bodies, red ids), and a knowledge-exchange yellow set whose
   creator and index rise together (the 200-member exchange rig).  No
   bucket may hold more than a handful of either; a creator term that
   is a small multiplier of a raw node id stacked the diagonal set 100
   deep. *)
let test_action_id_hash_spreads () =
  let worst ids =
    let t = Action.Id.Tbl.create 64 in
    List.iter (fun id -> Action.Id.Tbl.replace t id ()) ids;
    (Action.Id.Tbl.stats t).Hashtbl.max_bucket_length
  in
  let runs =
    List.concat
      (List.init 200 (fun server ->
           List.init 64 (fun i -> { Action.Id.server; index = 5_000 + i })))
  in
  let diagonal =
    List.init 202 (fun i -> { Action.Id.server = i mod 200; index = 1_000 + i })
  in
  Alcotest.(check bool) "runs of indices spread" true (worst runs <= 8);
  Alcotest.(check bool) "diagonal yellow set spreads" true (worst diagonal <= 8)

let () =
  Alcotest.run "db"
    [
      ( "ops",
        [
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "set-if-newer" `Quick test_set_if_newer;
          QCheck_alcotest.to_alcotest prop_commutative_ops_converge;
          QCheck_alcotest.to_alcotest prop_op_pairs_commute;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "digest" `Quick test_digest_equality;
          Alcotest.test_case "reroot round trip" `Quick test_reroot_round_trip;
          Alcotest.test_case "retained snapshot is bounded" `Quick
            test_retained_snapshot_bounded;
          QCheck_alcotest.to_alcotest prop_versions_match_map_model;
          QCheck_alcotest.to_alcotest prop_wide_versions_match_map_model;
          Alcotest.test_case "write path allocation" `Quick
            test_write_path_allocation;
        ] );
      ( "executor",
        [
          Alcotest.test_case "transfer procedure" `Quick test_procedure_transfer;
          Alcotest.test_case "interactive abort" `Quick test_interactive_abort;
          Alcotest.test_case "query" `Quick test_executor_query;
          Alcotest.test_case "read-write" `Quick test_read_write_action;
          Alcotest.test_case "procedure trace" `Quick test_executor_trace;
          QCheck_alcotest.to_alcotest prop_executor_deterministic;
        ] );
      ( "actions",
        [
          Alcotest.test_case "id ordering" `Quick test_action_id_order;
          Alcotest.test_case "id hash spreads" `Quick test_action_id_hash_spreads;
        ] );
      ( "more",
        [
          Alcotest.test_case "cas procedure" `Quick test_procedure_cas;
          Alcotest.test_case "registry isolation" `Quick
            test_registry_isolation;
          Alcotest.test_case "snapshot size" `Quick test_snapshot_size_grows;
          Alcotest.test_case "bindings sorted" `Quick test_bindings_sorted;
          QCheck_alcotest.to_alcotest prop_value_compare_total_order;
        ] );
    ]
