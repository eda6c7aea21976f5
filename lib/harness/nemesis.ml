module Sim = Repro_sim
module Monitor = Repro_check.Monitor
module Procguard = Repro_check.Procguard
module Value = Repro_db.Value
module Op = Repro_db.Op
module Action = Repro_db.Action
open Repro_net
open Repro_storage
open Repro_core

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = { seed : int; nodes : int; active_ms : float }

let default_config = { seed = 1; nodes = 5; active_ms = 4_000. }

(* The campaign's fixed shape: failover sessions driving the
   exactly-once oracle, the budget of the final heal-and-settle phase,
   every replica's disk fault model, and a checkpoint every 40 applied
   actions so salvage-vs-amnesia decisions meet real checkpoints. *)
let clients = 4
let settle_ms = 30_000.

let faults =
  {
    Disk.no_faults with
    torn_tail_on_crash = 0.6;
    corrupt_on_crash = 0.02;
    read_error = 0.01;
  }

let checkpoint_every = Some 40

(* Admission thresholds for the campaign's replicas: tight enough that
   retry storms into a struggling replica shed, loose enough that the
   steady state never sheds. *)
let campaign_admission = { Replica.adm_max_inflight = 32; adm_max_red = 128 }

type outcome = {
  o_steps : int;
  o_submitted : int;
  o_crashes : int;
  o_recoveries : int;
  o_corruptions : int;
  o_partitions : int;
  o_heals : int;
  o_clean : int;
  o_torn : int;
  o_salvaged : int;
  o_amnesia : int;
  o_ready : int;
  o_greens : int;
  o_sweeps : int;
  o_procs : int;
  o_client_acked : int;
  o_retries : int;
  o_failovers : int;
  o_dupes_suppressed : int;
  o_shed : int;
  o_violations : Repro_check.Snapshot.violation list;
}

let converged o = o.o_ready > 0 && o.o_violations = []

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>steps        %6d@,\
     submitted    %6d@,\
     crashes      %6d@,\
     recoveries   %6d  (clean %d, torn %d, salvaged %d, amnesia %d)@,\
     corruptions  %6d@,\
     partitions   %6d  (heals %d)@,\
     ready        %6d@,\
     greens       %6d@,\
     sweeps       %6d@,\
     procedures   %6d  (footprint-checked)@,\
     client acks  %6d  (retries %d, failovers %d)@,\
     dedup hits   %6d  (duplicate attempts answered from the window)@,\
     shed         %6d  (admission-control Busy)@,\
     verdict      %s@]" o.o_steps o.o_submitted o.o_crashes o.o_recoveries
    o.o_clean o.o_torn o.o_salvaged o.o_amnesia o.o_corruptions o.o_partitions
    o.o_heals o.o_ready o.o_greens o.o_sweeps o.o_procs o.o_client_acked
    o.o_retries o.o_failovers o.o_dupes_suppressed o.o_shed
    (if converged o then "CONVERGED"
     else
       Printf.sprintf "FAILED (%d violations)" (List.length o.o_violations));
  if o.o_violations <> [] then
    List.iter
      (fun v -> Format.fprintf ppf "@.  %a" Repro_check.Snapshot.pp_violation v)
      o.o_violations

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)

type tally = {
  mutable t_steps : int;
  mutable t_submitted : int;
  mutable t_crashes : int;
  mutable t_recoveries : int;
  mutable t_corruptions : int;
  mutable t_partitions : int;
  mutable t_heals : int;
  mutable t_clean : int;
  mutable t_torn : int;
  mutable t_salvaged : int;
  mutable t_amnesia : int;
  mutable t_value : int;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Recover one replica and book the storage verdict it reports. *)
let recover_and_tally tally r =
  Replica.recover r;
  tally.t_recoveries <- tally.t_recoveries + 1;
  match Replica.last_recovery r with
  | Some Persist.V_clean -> tally.t_clean <- tally.t_clean + 1
  | Some (Persist.V_torn_tail _) -> tally.t_torn <- tally.t_torn + 1
  | Some (Persist.V_salvaged _) -> tally.t_salvaged <- tally.t_salvaged + 1
  | Some Persist.V_amnesia -> tally.t_amnesia <- tally.t_amnesia + 1
  | None -> ()

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.nodes < 3 then invalid_arg "Nemesis.run: need at least 3 nodes";
  let rng = Sim.Rng.of_int cfg.seed in
  let disk_config =
    {
      Disk.default_forced with
      sync_latency = Sim.Time.of_ms 1.;
      faults;
    }
  in
  let w =
    World.make ~disk_config ~checkpoint_every
      ~admission:campaign_admission ~seed:cfg.seed ~n:cfg.nodes ()
  in
  let monitor = World.attach_monitor w in
  (* The client-visible oracle: [clients] failover sessions, each
     incrementing a private counter key "cc<id>" once per acknowledged
     request.  At the end, every converged replica must hold
     acked <= cc<id> <= issued — an acknowledged increment below the
     range was lost, one above it was applied twice (a retry that beat
     the dedup window).  Sessions retry and fail over on their own;
     the campaign only pumps the next request after each ack. *)
  let sessions =
    List.init clients (fun i ->
        Client.create ~sim:(World.sim w) ~id:(i + 1)
          ~replicas:(fun () -> World.replicas w)
          ())
  in
  let load =
    Experiment.closed (World.sim w) ~clients ~issue:(fun i ~k ->
        let c = List.nth sessions i in
        Client.exec c
          (Action.Update [ Op.Add (Printf.sprintf "cc%d" (Client.id c), 1) ])
          ~k:(fun _ -> k true))
  in
  (* Runtime footprint validation (paper §6): every executed stored
     procedure — on every replica, recovery replay included — has its
     actual key accesses checked against the declared footprint. *)
  let guard = World.attach_procedure_guard w in
  (* Traffic-composition draws come from their own stream so the fault
     schedule (drawn from [rng]) keeps the same shape per seed. *)
  let traffic_rng = Sim.Rng.of_int (cfg.seed + 7919) in
  let tally =
    {
      t_steps = 0;
      t_submitted = 0;
      t_crashes = 0;
      t_recoveries = 0;
      t_corruptions = 0;
      t_partitions = 0;
      t_heals = 0;
      t_clean = 0;
      t_torn = 0;
      t_salvaged = 0;
      t_amnesia = 0;
      t_value = 0;
    }
  in
  (* Never take down more replicas than leave a majority of the static
     set up: the campaign asserts convergence, which needs a quorum to
     exist once healed. *)
  let min_up = (cfg.nodes / 2) + 1 in
  let up () = List.filter Replica.is_up (World.replicas w) in
  let down () =
    List.filter (fun r -> not (Replica.is_up r)) (World.replicas w)
  in
  let submit_burst n =
    let targets =
      List.filter (fun r -> Replica.is_up r && Replica.is_ready r)
        (World.replicas w)
    in
    if targets <> [] then
      for _ = 1 to n do
        let r = Sim.Rng.pick rng targets in
        tally.t_value <- tally.t_value + 1;
        tally.t_submitted <- tally.t_submitted + 1;
        let node = Replica.node r in
        let key = Printf.sprintf "k%d" (Sim.Rng.int rng 8) in
        (* Mostly plain updates; a slice of §6 stored-procedure calls
           against the declared-footprint builtins keeps the runtime
           guard exercised under the same fault schedule.  The plain
           updates double as account funding, so transfers succeed. *)
        match Sim.Rng.int traffic_rng 5 with
        | 0 ->
          World.submit_procedure w ~node ~proc:"restock"
            [
              Value.Text (Printf.sprintf "stock%d" (Sim.Rng.int traffic_rng 4));
              Value.Int (1 + Sim.Rng.int traffic_rng 5);
            ]
        | 1 ->
          World.submit_procedure w ~node ~proc:"transfer"
            [
              Value.Text key;
              Value.Text (Printf.sprintf "k%d" (Sim.Rng.int traffic_rng 8));
              Value.Int (1 + Sim.Rng.int traffic_rng 3);
            ]
        | 2 ->
          World.submit_procedure w ~node ~proc:"cas"
            [
              Value.Text key;
              Value.Int (Sim.Rng.int traffic_rng 50);
              Value.Int tally.t_value;
            ]
        | _ -> World.submit_update w ~node ~key tally.t_value
      done
  in
  let crash_one () =
    match up () with
    | ups when List.length ups > min_up ->
      Replica.crash (Sim.Rng.pick rng ups);
      tally.t_crashes <- tally.t_crashes + 1
    | _ -> submit_burst 1
  in
  let recover_one () =
    match down () with
    | [] -> submit_burst 1
    | downs -> recover_and_tally tally (Sim.Rng.pick rng downs)
  in
  let corrupt_one () =
    (* Only replicas already down are damaged (bit rot surfacing while
       the machine is off), and only while the rest of the cluster
       retains a majority — the victim may come back amnesiac and spend
       a while re-joining. *)
    let candidates =
      List.filter (fun r -> Replica.log_entries r > 0) (down ())
    in
    match candidates with
    | [] -> submit_burst 1
    | _ when List.length (up ()) < min_up -> submit_burst 1
    | candidates ->
      let r = Sim.Rng.pick rng candidates in
      let nth = Sim.Rng.int rng (Replica.log_entries r) in
      if Replica.corrupt_log r ~nth then
        tally.t_corruptions <- tally.t_corruptions + 1
  in
  let partition () =
    let nodes = Sim.Rng.shuffle rng (World.nodes w) in
    let k = 1 + Sim.Rng.int rng (List.length nodes - 1) in
    let left = List.filteri (fun i _ -> i < k) nodes in
    let right = List.filteri (fun i _ -> i >= k) nodes in
    Topology.partition (World.topology w) [ left; right ];
    tally.t_partitions <- tally.t_partitions + 1
  in
  let heal () =
    Topology.merge_all (World.topology w);
    tally.t_heals <- tally.t_heals + 1
  in
  (* --- active phase ---------------------------------------------- *)
  let sim = World.sim w in
  let deadline =
    Sim.Time.add (Sim.Engine.now sim) ~span:(Sim.Time.of_ms cfg.active_ms)
  in
  while Sim.Engine.now sim < deadline do
    tally.t_steps <- tally.t_steps + 1;
    let roll = Sim.Rng.int rng 100 in
    if roll < 35 then submit_burst (1 + Sim.Rng.int rng 3)
    else if roll < 55 then crash_one ()
    else if roll < 72 then recover_one ()
    else if roll < 82 then corrupt_one ()
    else if roll < 91 then partition ()
    else heal ();
    World.run w ~ms:(float_of_int (20 + Sim.Rng.int rng 180))
  done;
  (* --- heal, recover everyone, settle ----------------------------- *)
  (* Stop issuing new client requests; each session still drives its
     outstanding one (retries included) to completion during settle. *)
  Experiment.stop load;
  Topology.merge_all (World.topology w);
  List.iter (recover_and_tally tally) (down ());
  let all_ready () = List.for_all Replica.is_ready (World.replicas w) in
  let settle_deadline =
    Sim.Time.add (Sim.Engine.now sim) ~span:(Sim.Time.of_ms settle_ms)
  in
  (* Amnesiac rejoins go through sponsor retries and state transfer:
     poll in slices rather than burning the whole budget blindly. *)
  while Sim.Engine.now sim < settle_deadline && not (all_ready ()) do
    World.run w ~ms:1_000.
  done;
  World.run w ~ms:2_000.;
  (* --- verdicts ---------------------------------------------------- *)
  let ledgers =
    List.map
      (fun c ->
        {
          Consistency.l_client = Client.id c;
          l_key = Printf.sprintf "cc%d" (Client.id c);
          l_issued = Client.issued c;
          l_acked = Client.acked c;
        })
      sessions
  in
  let violations = World.verdict w ~ledgers in
  let ready = List.filter Replica.is_ready (World.replicas w) in
  let greens =
    List.fold_left
      (fun acc r -> max acc (Repro_core.Engine.green_count (Replica.engine r)))
      0 ready
  in
  {
    o_steps = tally.t_steps;
    o_submitted = tally.t_submitted;
    o_crashes = tally.t_crashes;
    o_recoveries = tally.t_recoveries;
    o_corruptions = tally.t_corruptions;
    o_partitions = tally.t_partitions;
    o_heals = tally.t_heals;
    o_clean = tally.t_clean;
    o_torn = tally.t_torn;
    o_salvaged = tally.t_salvaged;
    o_amnesia = tally.t_amnesia;
    o_ready = List.length ready;
    o_greens = greens;
    o_sweeps = Monitor.observations monitor;
    o_procs = Procguard.checked guard;
    o_client_acked = sum (fun c -> Client.acked c) sessions;
    o_retries = sum Client.retries sessions;
    o_failovers = sum Client.failovers sessions;
    o_dupes_suppressed = sum Replica.dupes_suppressed (World.replicas w);
    o_shed = sum Replica.shed (World.replicas w);
    o_violations = violations;
  }
