(* Property-based testing: random fault schedules against a full cluster
   with the consistency checker on.

   Each case draws a schedule of partitions, merges, crashes and
   recoveries at random times, interleaved with a background update
   workload, runs it in the deterministic simulator, checks safety at
   every step, then heals everything and checks liveness (convergence).
   A failing seed reproduces exactly. *)

open Repro_net
open Repro_core
open Repro_harness

type fault =
  | Split of int list list (* partition groups over nodes 0..n-1 *)
  | Heal
  | Crash of int
  | Recover of int

let pp_fault = function
  | Split groups ->
    "split["
    ^ String.concat "|"
        (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)
    ^ "]"
  | Heal -> "heal"
  | Crash n -> Printf.sprintf "crash %d" n
  | Recover n -> Printf.sprintf "recover %d" n

(* --- generators ----------------------------------------------------- *)

let n_nodes = 5

let gen_groups : int list list QCheck.Gen.t =
  let open QCheck.Gen in
  (* A random 2- or 3-way partition of 0..4 by assignment labels. *)
  list_repeat n_nodes (int_bound 2) >|= fun labels ->
  let group l =
    List.filteri (fun i _ -> List.nth labels i = l) (List.init n_nodes Fun.id)
  in
  List.filter (fun g -> g <> []) [ group 0; group 1; group 2 ]

let gen_fault : fault QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (3, gen_groups >|= fun g -> Split g);
      (2, return Heal);
      (2, int_bound (n_nodes - 1) >|= fun n -> Crash n);
      (3, int_bound (n_nodes - 1) >|= fun n -> Recover n);
    ]

let gen_schedule : fault list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 1 8) gen_fault)

let arb_schedule =
  QCheck.make gen_schedule
    ~print:(fun s -> String.concat "; " (List.map pp_fault s))

(* --- the property --------------------------------------------------- *)

(* Returns true when the schedule preserves safety throughout and the
   cluster converges after healing. *)
let run_schedule ~seed schedule =
  let w = World.make ~seed ~n:n_nodes () in
  (* The repcheck monitor re-checks the paper's invariants online at
     every view change while the schedule runs. *)
  ignore (World.attach_monitor w);
  World.run w ~ms:1000.;
  let key = ref 0 in
  let background () =
    for node = 0 to n_nodes - 1 do
      incr key;
      let r = World.replica w node in
      if Replica.is_ready r then
        World.submit_update w ~node ~key:(Printf.sprintf "k%d" !key) !key
    done
  in
  List.iter
    (fun fault ->
      (match fault with
      | Split groups -> Topology.partition (World.topology w) groups
      | Heal -> Topology.merge_all (World.topology w)
      | Crash n -> Replica.crash (World.replica w n)
      | Recover n -> Replica.recover (World.replica w n));
      background ();
      World.run w ~ms:700.;
      World.assert_safe w)
    schedule;
  (* Liveness: heal everything and wait for convergence. *)
  World.heal_and_settle ~ms:8000. w;
  background ();
  World.run w ~ms:2000.;
  match World.verdict w ~ledgers:[] with
  | [] -> true
  | vs ->
    QCheck.Test.fail_report
      (Format.asprintf "%a"
         (Format.pp_print_list Repro_check.Snapshot.pp_violation)
         vs)

let prop_fault_schedules_safe =
  QCheck.Test.make ~name:"random fault schedules preserve safety and liveness"
    ~count:25 arb_schedule
    (fun schedule -> run_schedule ~seed:1234 schedule)

let prop_fault_schedules_other_seed =
  QCheck.Test.make ~name:"random fault schedules (different timing seed)"
    ~count:15 arb_schedule
    (fun schedule -> run_schedule ~seed:987 schedule)

(* Focused generators: crash/recover churn only (exercises recovery and
   the vulnerable bookkeeping without partitions). *)
let gen_crash_churn : fault list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 2 10)
    (oneof
       [
         (int_bound (n_nodes - 1) >|= fun n -> Crash n);
         (int_bound (n_nodes - 1) >|= fun n -> Recover n);
       ])

let prop_crash_churn =
  QCheck.Test.make ~name:"crash/recover churn preserves safety and liveness"
    ~count:20
    (QCheck.make gen_crash_churn
       ~print:(fun s -> String.concat "; " (List.map pp_fault s)))
    (fun schedule -> run_schedule ~seed:555 schedule)

(* Partition churn only (no crashes): the pure eventual-path story. *)
let gen_partition_churn : fault list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 2 8)
    (frequency [ (3, gen_groups >|= fun g -> Split g); (1, return Heal) ])

let prop_partition_churn =
  QCheck.Test.make ~name:"partition churn preserves safety and liveness"
    ~count:20
    (QCheck.make gen_partition_churn
       ~print:(fun s -> String.concat "; " (List.map pp_fault s)))
    (fun schedule -> run_schedule ~seed:31415 schedule)

let () =
  Alcotest.run "props"
    [
      ( "fault-schedules",
        [
          QCheck_alcotest.to_alcotest prop_fault_schedules_safe;
          QCheck_alcotest.to_alcotest prop_fault_schedules_other_seed;
          QCheck_alcotest.to_alcotest prop_crash_churn;
          QCheck_alcotest.to_alcotest prop_partition_churn;
        ] );
    ]
