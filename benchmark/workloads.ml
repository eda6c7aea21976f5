(* The four workloads.  Each builds a cluster through [World], drives it
   with [Client] sessions (so "end to end" is what a client session
   sees), measures one window, stops issuing, lets the cluster settle
   and checks it: [Consistency.check_all ~converged:true] always, plus
   each workload's own output checks.

   Everything the program receives is generated from the seed; the
   program is reached only through the public functions of its
   libraries. *)

module Sim = Repro_sim
module Time = Sim.Time
module Network = Repro_net.Network
module Topology = Repro_net.Topology
module Params = Repro_gcs.Params
module Disk = Repro_storage.Disk
module Action = Repro_db.Action
module Op = Repro_db.Op
module Value = Repro_db.Value
module Database = Repro_db.Database
module Replica = Repro_core.Replica
module Engine = Repro_core.Engine
module World = Repro_harness.World
module Client = Repro_harness.Client
module Consistency = Repro_harness.Consistency

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* What the layer isolation rigs need to rebuild one layer of a
   workload on its own. *)
type shape = {
  members : int;
  net : Network.config;
  disk : Disk.config;
  action_size : int;
  preload : Database.t -> unit;
  ops : seed:int -> unit -> Action.kind * (Action.response -> bool);
      (* the workload's operation mix as one stream, with output checks *)
}

type mode = Setup_only | Untraced | Traced

type episode = {
  lat : Sample.t;  (* ms from due time, requests due in the window *)
  goodput : float;  (* completions in the window within the limit, per s *)
  slo_rate : float;
  unavailable_ms : float;
  faults : int;
  attempted : int;
  failed : int;  (* never completed, or answered wrongly *)
  completions : int;  (* the operations [window_cpu] and [minor_words] paid for *)
  setup_cpu : float;
  window_cpu : float;
  window_wall : float;
  minor_words : float;
  layer : Metric.t list;  (* per-layer counters over the window *)
  recoveries_ms : float list;
  probe : Probe.t option;
  violations : string list;
}

let setup_episode setup_cpu =
  {
    lat = Sample.create ();
    goodput = 0.;
    slo_rate = 0.;
    unavailable_ms = 0.;
    faults = 0;
    attempted = 0;
    failed = 0;
    completions = 0;
    setup_cpu;
    window_cpu = 0.;
    window_wall = 0.;
    minor_words = 0.;
    layer = [];
    recoveries_ms = [];
    probe = None;
    violations = [];
  }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

(* Session ids: [Client] aims a fresh session at replica
   [(id - 1) mod 64] of the cluster list, so these ids spread sessions
   round-robin over the replicas and no session starts aimed past the
   end of the list. *)
let session_id ~replicas i = (64 * (i / replicas)) + (i mod replicas) + 1

type tracker = {
  sim : Sim.Engine.t;
  limit_ms : float;
  mutable open_at : Time.t;
  mutable close_at : Time.t;
  mutable windowed : bool;
  lat : Sample.t;
  mutable attempted : int;
  mutable completed : int;
  mutable wrong : int;
  mutable good : int;
  mutable issuing : bool;
  mutable errors : string list;
  mutable probe : Probe.t option;
  mutable faults : fault list;
}

(* The wait a fault imposes: the longest time any session goes from the
   fault to its next completion. *)
and fault = {
  f_at : Time.t;
  answered : (int, unit) Hashtbl.t;  (* sessions with a completion since *)
  mutable f_wait_ms : float;
}

let tracker sim ~limit_ms =
  {
    sim;
    limit_ms;
    open_at = Time.zero;
    close_at = Time.zero;
    windowed = false;
    lat = Sample.create ();
    attempted = 0;
    completed = 0;
    wrong = 0;
    good = 0;
    issuing = true;
    errors = [];
    probe = None;
    faults = [];
  }

(* The window is (open, close]: [Sim.Engine.run ~until] runs the events
   due at [until] itself, so an event at the opening instant ran before
   the window was opened, and one at the closing instant inside it. *)
let in_window tr at =
  tr.windowed && Time.(at > tr.open_at) && Time.(at <= tr.close_at)

let open_window tr ~span =
  let now = Sim.Engine.now tr.sim in
  tr.open_at <- now;
  tr.close_at <- Time.add now ~span;
  tr.windowed <- true

let note_fault tr =
  tr.faults <-
    { f_at = Sim.Engine.now tr.sim; answered = Hashtbl.create 16; f_wait_ms = 0. } :: tr.faults

let note_completion tr ~client at =
  List.iter
    (fun f ->
      if not (Hashtbl.mem f.answered client) then begin
        Hashtbl.add f.answered client ();
        f.f_wait_ms <- Float.max f.f_wait_ms (Time.to_ms (Time.diff at f.f_at))
      end)
    tr.faults

let exec tr c kind ~check ~k =
  let due = Sim.Engine.now tr.sim in
  let inside = in_window tr due in
  if inside then tr.attempted <- tr.attempted + 1;
  let seq = ref 0 in
  Client.exec c kind ~k:(fun resp ->
      let at = Sim.Engine.now tr.sim in
      let ok = check resp in
      let lat = Time.to_ms (Time.diff at due) in
      if not ok then begin
        tr.wrong <- tr.wrong + 1;
        if List.length tr.errors < 5 then
          tr.errors <-
            Format.asprintf "session %d: unexpected response %a to %a"
              (Client.id c) Action.pp_response resp Action.pp
              (Action.make ~server:0 ~index:0 kind)
            :: tr.errors
      end;
      if inside then begin
        tr.completed <- tr.completed + 1;
        Sample.add tr.lat lat;
        match tr.probe with
        | Some p -> Probe.complete p ~client:(Client.id c) ~seq:!seq ~at
        | None -> ()
      end;
      if ok && in_window tr at && lat <= tr.limit_ms then tr.good <- tr.good + 1;
      note_completion tr ~client:(Client.id c) at;
      k ());
  seq := Client.issued c;
  if inside then
    match tr.probe with
    | Some p -> Probe.register p ~client:(Client.id c) ~seq:!seq ~due
    | None -> ()

let committed_empty = function Action.Committed [] -> true | _ -> false

let output_is n = function
  | Action.Procedure_output (Value.Int m) -> m = n
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Counters read around the window (untraced: reading costs nothing)   *)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Named counts, in a fixed order per source. *)
let diff a b = List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b
let add a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b
let get k counts = List.assoc k counts

let read_counters sim replicas sessions =
  [
    ("events", Sim.Engine.events_executed sim);
    ("flushes", sum Replica.log_flushes replicas);
    ("applies", sum Replica.greens_applied replicas);
    ("shed", sum Replica.shed replicas);
    ("submitted", sum Replica.actions_submitted replicas);
    ("dedup", sum Replica.dupes_suppressed replicas);
    ("chunks", sum Replica.transfer_chunks_sent replicas);
    ("retries", sum Client.retries sessions);
    ("busy", sum Client.busy_responses sessions);
    ("failovers", sum Client.failovers sessions);
    ("timeouts", sum Client.timeouts sessions);
  ]

let engine_counters e =
  let s = Engine.stats e in
  Engine.
    [
      ("exchanges", s.s_exchanges);
      ("resent", s.s_actions_resent);
      ("batches", s.s_submit_batches);
      ("batched", s.s_batched_submissions);
    ]

let busy_us replicas =
  List.map
    (fun r -> match Replica.cpu_stats r with Some (_, busy) -> Time.to_us busy | None -> 0)
    replicas

(* What one window did; the ladder sums its rates'. *)
type window = {
  counts : (string * int) list;
  busy_frac_max : float;  (* the busiest replica CPU's share of the window *)
  sessions_peak : int;
}

let add_windows a b =
  {
    counts = add a.counts b.counts;
    busy_frac_max = Float.max a.busy_frac_max b.busy_frac_max;
    sessions_peak = max a.sessions_peak b.sessions_peak;
  }

type meter = {
  track : unit -> unit;  (* note engines born since (recovery, rejoin) *)
  close : unit -> window;
}

(* Start counting at the window's opening.  Engine statistics die with
   an engine (crash, amnesiac rejoin), so every engine seen is kept with
   the counters it had when first seen: at the opening, or none for one
   born inside the window.  Primary-component installs come from the
   engine audit feed, whose sink survives crash and recovery. *)
let meter w ~sessions =
  let sim = World.sim w and replicas () = World.replicas w in
  let seen = ref [] and installs = ref 0 and counting = ref true in
  let track ~baseline () =
    List.iter
      (fun r ->
        if Replica.is_ready r then
          let e = Replica.engine r in
          if not (List.exists (fun (e', _) -> e' == e) !seen) then
            let base = engine_counters e in
            seen := (e, if baseline then base else List.map (fun (k, _) -> (k, 0)) base) :: !seen)
      (replicas ())
  in
  track ~baseline:true ();
  List.iter
    (fun r ->
      Replica.set_audit r (function
        | Engine.Audit_install _ -> if !counting then incr installs
        | Engine.Audit_state _ | Engine.Audit_quorum _ -> ()))
    (replicas ());
  let t0 = Sim.Engine.now sim in
  let c0 = read_counters sim (replicas ()) (sessions ()) and b0 = busy_us (replicas ()) in
  let close () =
    counting := false;
    track ~baseline:false ();
    let span_us = float_of_int (Time.to_us (Time.diff (Sim.Engine.now sim) t0)) in
    let engines =
      match List.map (fun (e, base) -> diff base (engine_counters e)) !seen with
      | first :: rest -> List.fold_left add first rest
      | [] -> []
    in
    {
      counts =
        diff c0 (read_counters sim (replicas ()) (sessions ()))
        @ engines
        @ [ ("installs", !installs) ];
      busy_frac_max =
        List.fold_left2
          (fun acc b0 b1 -> Float.max acc (float_of_int (b1 - b0) /. span_us))
          0. b0 (busy_us (replicas ()));
      sessions_peak = List.length (sessions ());
    }
  in
  { track = track ~baseline:false; close }

let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d

let layer_metrics w ~completions =
  let c k = get k w.counts in
  let per_op k = ratio (c k) completions and count k = float_of_int (c k) in
  [
    Metric.v "sim.events_per_op" "events/op" (per_op "events");
    Metric.v "net.cpu_busy_frac_max" "ratio" w.busy_frac_max;
    Metric.v "gcs.view_installs" "count" (count "installs");
    Metric.v "core.mean_batch" "actions"
      (if c "batches" = 0 then 1. else ratio (c "batched") (c "batches"));
    Metric.v "core.exchanges" "count" (count "exchanges");
    Metric.v "core.actions_resent_per_op" "actions/op" (per_op "resent");
    Metric.v "core.shed_frac" "ratio" (ratio (c "shed") (c "shed" + c "submitted"));
    Metric.v "core.dedup_hits" "count" (count "dedup");
    Metric.v "storage.flushes_per_op" "flushes/op" (per_op "flushes");
    Metric.v "db.applies_per_op" "applies/op" (per_op "applies");
    Metric.v "db.transfer_chunks" "count" (count "chunks");
    Metric.v "client.retries_per_op" "retries/op" (per_op "retries");
    Metric.v "client.busy_per_op" "busy/op" (per_op "busy");
    Metric.v "client.sessions_peak" "sessions" (float_of_int w.sessions_peak);
    Metric.v "client.failovers" "count" (count "failovers");
    Metric.v "client.timeouts" "count" (count "timeouts");
  ]

(* Virtual ms from [Replica.recover] until the replica is ready and has
   caught up with the furthest green count among its peers, polled
   every 100 µs of virtual time. *)
let watch_recovery w r ~record =
  let sim = World.sim w in
  let t0 = Sim.Engine.now sim in
  let incarnation = Replica.incarnation r in
  let caught_up () =
    Replica.is_ready r
    &&
    let mine = Engine.green_count (Replica.engine r) in
    List.for_all
      (fun p ->
        p == r || (not (Replica.is_ready p)) || Engine.green_count (Replica.engine p) <= mine)
      (World.replicas w)
  in
  let rec poll () =
    (* Crashing again (or a second amnesiac bump) abandons the watch. *)
    if Replica.is_up r && Replica.incarnation r - incarnation <= 1 then
      if caught_up () then record (Time.to_ms (Time.diff (Sim.Engine.now sim) t0))
      else ignore (Sim.Engine.schedule sim ~delay:(Time.of_us 100) poll)
  in
  poll ()

(* A scripted fault or repair, at an offset (virtual s) from where the
   script starts. *)
type step = { at_s : float; fault : bool; act : unit -> unit }

(* Run [steps] in order, starting now; start a recovery watch on every
   replica a step brings back up. *)
let play w tr ~on_step ~recoveries steps =
  let sim = World.sim w in
  let t0 = Sim.Engine.now sim in
  List.iter
    (fun s ->
      Sim.Engine.run ~until:(Time.add t0 ~span:(Time.of_sec s.at_s)) sim;
      on_step ();
      let down = List.filter (fun r -> not (Replica.is_up r)) (World.replicas w) in
      s.act ();
      if s.fault then note_fault tr;
      List.iter
        (fun r ->
          if Replica.is_up r then
            watch_recovery w r ~record:(fun ms -> recoveries := ms :: !recoveries))
        down)
    steps

(* The longest wait for service: with faults (churn), the largest wait a
   fault imposed on a session; without, the longest any request due in
   the window waited for its answer, which in a closed loop without
   think time is the longest gap between a session's completions. *)
let unavailable tr =
  match tr.faults with
  | [] -> Option.value (Sample.maximum tr.lat) ~default:0.
  | faults -> List.fold_left (fun acc f -> Float.max acc f.f_wait_ms) 0. faults

(* After issuing stops: heal, recover, and run until every session has
   its answer and every replica is ready, then a little longer so every
   replica applies everything. *)
let settle w outstanding =
  Topology.merge_all (World.topology w);
  List.iter (fun r -> if not (Replica.is_up r) then Replica.recover r) (World.replicas w);
  let idle () = outstanding () = 0 && List.for_all Replica.is_ready (World.replicas w) in
  let slices = ref 0 in
  while (not (idle ())) && !slices < 60 do
    incr slices;
    World.run w ~ms:500.
  done;
  World.run w ~ms:1_000.

let consistency w =
  List.map
    (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
    (Consistency.check_all ~converged:true (World.replicas w))

let start_probe tr w outstanding =
  let p =
    Probe.start ~sim:(World.sim w) ~replicas:(fun () -> World.replicas w) ~outstanding
  in
  tr.probe <- Some p;
  p

(* ------------------------------------------------------------------ *)
(* Closed-loop episodes (knee, kv_forced, churn)                       *)

type closed = {
  c_world : seed:int -> World.t;
  c_sessions : int;
  c_limit_ms : float;
  c_prepare : seed:int -> World.t -> unit;
      (* before any load: preload, per-episode input tables *)
  c_op : int -> Action.kind * (Action.response -> bool);
      (* the next operation of session [i], with its output check *)
  c_faults : seed:int -> window_s:float -> World.t -> step list;
      (* faults inside the window, offsets from its start *)
  c_check : World.t -> Client.t list -> string list;
}

(* The paper's method (and [Experiment]): let membership settle for 2 s,
   attach the clients, one more second of ramp, then measure. *)
let warmup_s = 2.
let ramp_s = 1.

let run_closed spec ~seed ~window_s ~mode =
  let t_start = cpu_s () in
  let w = spec.c_world ~seed in
  let sim = World.sim w in
  spec.c_prepare ~seed w;
  Sim.Engine.run ~until:(Time.of_sec warmup_s) sim;
  let n = List.length (World.replicas w) in
  let tr = tracker sim ~limit_ms:spec.c_limit_ms in
  let sessions =
    List.init spec.c_sessions (fun i ->
        Client.create ~sim ~id:(session_id ~replicas:n i)
          ~replicas:(fun () -> World.replicas w)
          ())
  in
  (* Closed loop, as in the paper: a session's next request is due the
     moment its previous response arrives. *)
  let rec pump i c =
    if tr.issuing then begin
      let kind, check = spec.c_op i in
      exec tr c kind ~check ~k:(fun () -> pump i c)
    end
  in
  List.iteri pump sessions;
  Sim.Engine.run ~until:(Time.of_sec (warmup_s +. ramp_s)) sim;
  let setup_cpu = cpu_s () -. t_start in
  if mode = Setup_only then setup_episode setup_cpu
  else begin
    open_window tr ~span:(Time.of_sec window_s);
    let outstanding () = sum Client.outstanding sessions in
    let probe = if mode = Traced then Some (start_probe tr w outstanding) else None in
    let recoveries = ref [] in
    let m = meter w ~sessions:(fun () -> sessions) in
    let c0 = cpu_s () and w0 = Unix.gettimeofday () and m0 = Gc.minor_words () in
    play w tr (spec.c_faults ~seed ~window_s w) ~recoveries ~on_step:m.track;
    Sim.Engine.run ~until:tr.close_at sim;
    let window_cpu = cpu_s () -. c0
    and window_wall = Unix.gettimeofday () -. w0
    and minor_words = Gc.minor_words () -. m0 in
    let counted = m.close () in
    tr.issuing <- false;
    settle w outstanding;
    Option.iter Probe.stop probe;
    let goodput = float_of_int tr.good /. window_s in
    {
      lat = tr.lat;
      goodput;
      (* A closed loop offers what it completes: its SLO rate is its
         goodput when the window's p99 meets the latency limit. *)
      slo_rate =
        (match Sample.percentile tr.lat 99. with
        | Some p when p <= spec.c_limit_ms -> goodput
        | _ -> 0.);
      unavailable_ms = unavailable tr;
      faults = List.length tr.faults;
      attempted = tr.attempted;
      failed = tr.attempted - tr.completed + tr.wrong;
      completions = tr.completed;
      setup_cpu;
      window_cpu;
      window_wall;
      minor_words;
      layer = layer_metrics counted ~completions:tr.completed;
      recoveries_ms = List.rev !recoveries;
      probe;
      violations = consistency w @ spec.c_check w sessions @ List.rev tr.errors;
    }
  end

(* ------------------------------------------------------------------ *)
(* knee: the Fig. 5(b) delayed-writes point                            *)

let knee_replicas = 14

let knee_world ~seed =
  World.make ~net_config:Network.lan_gigabit ~params:Params.default
    ~disk_config:Disk.default_delayed ~attach_cpu:true ~seed ~n:knee_replicas ()

let knee =
  {
    c_world = knee_world;
    c_sessions = knee_replicas;
    c_limit_ms = 50.;
    c_prepare = (fun ~seed:_ _ -> ());
    c_op = (fun _ -> (Action.Update [], committed_empty));
    c_faults = (fun ~seed:_ ~window_s:_ _ -> []);
    c_check = (fun _ _ -> []);
  }

let knee_shape =
  {
    members = knee_replicas;
    net = Network.lan_gigabit;
    disk = Disk.default_delayed;
    action_size = 200;
    preload = ignore;
    ops = (fun ~seed:_ () -> (Action.Update [], committed_empty));
  }

(* ------------------------------------------------------------------ *)
(* kv_forced: a preloaded key space on forced writes                   *)

let kv_registers = 98_000
let kv_accounts = 1_000
let kv_cas_keys = 1_000
let kv_balance = 1_000_000
let kv_sessions = 128

let reg_key i = Printf.sprintf "r%05d" i
let acct_key i = Printf.sprintf "a%04d" i
let cas_key i = Printf.sprintf "c%04d" i

(* 100,000 keys: registers for reads and writes, accounts for
   transfers, and compare-and-set cells. *)
let kv_preload db =
  Database.apply db
    (List.concat
       [
         List.init kv_registers (fun i -> Op.Set (reg_key i, Value.Int i));
         List.init kv_accounts (fun i -> Op.Set (acct_key i, Value.Int kv_balance));
         List.init kv_cas_keys (fun i -> Op.Set (cas_key i, Value.Int 0));
       ])

type kv_inputs = {
  regs : string array;
  accts : string array;
  cells : string array;
  rngs : Sim.Rng.t array;  (* one input stream per session *)
  expected : int array;  (* per cas cell: the value its owner last set *)
}

let kv_inputs ~seed =
  {
    regs = Array.init kv_registers reg_key;
    accts = Array.init kv_accounts acct_key;
    cells = Array.init kv_cas_keys cas_key;
    rngs = Array.init kv_sessions (fun i -> Sim.Rng.of_int ((seed * 1_000_003) + i));
    expected = Array.make kv_cas_keys 0;
  }

(* 30% ordered 4-key reads, 40% 4-key writes, 20% transfers, 10%
   compare-and-set.  Cas cell [j] belongs to session [j mod 128], so its
   owner always knows the current value and every cas must succeed;
   balances dwarf the amounts moved, so every transfer must succeed. *)
let kv_op inp i =
  let rng = inp.rngs.(i) in
  let reg () = inp.regs.(Sim.Rng.int rng kv_registers) in
  let u = Sim.Rng.int rng 100 in
  if u < 30 then
    ( Action.Query [ reg (); reg (); reg (); reg () ],
      function
      | Action.Committed rows ->
        List.length rows = 4
        && List.for_all (function _, Some (Value.Int _) -> true | _ -> false) rows
      | _ -> false )
  else if u < 70 then
    let set () = Op.Set (reg (), Value.Int (Sim.Rng.int rng 1_000_000)) in
    (Action.Update [ set (); set (); set (); set () ], committed_empty)
  else if u < 90 then
    let a = Sim.Rng.int rng kv_accounts in
    let b = (a + 1 + Sim.Rng.int rng (kv_accounts - 1)) mod kv_accounts in
    ( Action.Active
        {
          proc = "transfer";
          args =
            [ Value.Text inp.accts.(a); Value.Text inp.accts.(b);
              Value.Int (1 + Sim.Rng.int rng 100) ];
        },
      output_is 1 )
  else
    let owned = ((kv_cas_keys - 1 - i) / kv_sessions) + 1 in
    let cell = i + (kv_sessions * Sim.Rng.int rng owned) in
    let cur = inp.expected.(cell) in
    ( Action.Active
        {
          proc = "cas";
          args = [ Value.Text inp.cells.(cell); Value.Int cur; Value.Int (cur + 1) ];
        },
      fun resp ->
        let ok = output_is 1 resp in
        if ok then inp.expected.(cell) <- cur + 1;
        ok )

(* Every replica: money is conserved, and every cas cell holds what its
   owner last set. *)
let kv_check inp w =
  List.concat_map
    (fun r ->
      if not (Replica.is_ready r) then []
      else
        let db = Replica.database r in
        let value k = match Database.get db k with Some (Value.Int v) -> v | _ -> -1 in
        let total = Array.fold_left (fun acc k -> acc + value k) 0 inp.accts in
        let cells = ref 0 in
        Array.iteri (fun i k -> if value k <> inp.expected.(i) then incr cells) inp.cells;
        (if total = kv_accounts * kv_balance then []
         else
           [ Printf.sprintf "kv_forced: n%d holds %d in accounts, expected %d"
               (Replica.node r) total (kv_accounts * kv_balance) ])
        @
        if !cells = 0 then []
        else
          [ Printf.sprintf "kv_forced: n%d has %d cas cells differing from their owners'"
              (Replica.node r) !cells ])
    (World.replicas w)

let kv_forced () =
  let inp = ref None in
  let inputs () = Option.get !inp in
  {
    c_world =
      (fun ~seed ->
        World.make ~net_config:Network.lan_gigabit ~params:Params.default
          ~disk_config:Disk.default_forced ~attach_cpu:true ~seed ~n:5 ());
    c_sessions = kv_sessions;
    c_limit_ms = 100.;
    c_prepare =
      (fun ~seed w ->
        inp := Some (kv_inputs ~seed);
        let db = Database.create () in
        kv_preload db;
        let snapshot = Database.snapshot db in
        List.iter (fun r -> Database.restore (Replica.database r) snapshot) (World.replicas w));
    c_op = (fun i -> kv_op (inputs ()) i);
    c_faults = (fun ~seed:_ ~window_s:_ _ -> []);
    c_check = (fun w _ -> kv_check (inputs ()) w);
  }

let kv_shape =
  {
    members = 5;
    net = Network.lan_gigabit;
    disk = Disk.default_forced;
    action_size = 200;
    preload = kv_preload;
    ops =
      (fun ~seed ->
        let inp = kv_inputs ~seed and pick = Sim.Rng.of_int seed in
        fun () -> kv_op inp (Sim.Rng.int pick kv_sessions));
  }

(* ------------------------------------------------------------------ *)
(* churn: a fault every 3 s under closed-loop counter sessions         *)

let churn_replicas = 7
let churn_sessions = 16
let churn_period_s = 3.

let counter_key id = Printf.sprintf "cc%d" id

(* Forced writes, as in the nemesis campaigns: recovery is sound only
   over a log whose acknowledged records are durable, and a
   delayed-write disk loses them in a crash. *)
let churn_disk = { Disk.default_forced with sync_latency = Time.of_ms 1. }

(* A minority of [size] replicas, no two of them next to each other in
   the cluster list.  A session whose replica is cut off waits out its
   400 ms deadline and fails over to the next replica in that list; were
   that one cut off too, it would wait a second deadline.  Whether a
   minority drawn at random held such a pair decided, for three seeds in
   ten, whether the worst wait of a run read 420 or 850 ms. *)
let scattered_minority rng ~size nodes =
  let n = List.length nodes in
  let near i j = (i - j + n) mod n <= 1 || (j - i + n) mod n <= 1 in
  List.fold_left
    (fun picked i ->
      if List.length picked < size && not (List.exists (near i) picked) then i :: picked
      else picked)
    [] (Sim.Rng.shuffle rng (List.init n Fun.id))
  |> List.map (List.nth nodes)

(* One fault per 3 s of window.  The kinds cycle in a fixed order, so
   every run exercises each equally often; the seed draws the first
   kind, the victims and the instants.  Each fault is repaired a second
   later, well past the failure detector's 150 ms. *)
let churn_faults ~seed ~window_s w =
  let rng = Sim.Rng.of_int ((seed * 7_919) + 17) in
  let period = churn_period_s in
  let down = period /. 3. in
  let first = Sim.Rng.int rng 3 in
  let replicas = World.replicas w in
  let nodes = List.map Replica.node replicas in
  List.concat
    (List.init
       (int_of_float (window_s /. period))
       (fun k ->
         let at = (float_of_int k *. period) +. (period /. 6.) +. Sim.Rng.float rng (period /. 6.) in
         match (first + k) mod 3 with
         | 0 ->
           (* a minority partition, then heal *)
           let size = 1 + Sim.Rng.int rng ((churn_replicas - 1) / 2) in
           let minority = scattered_minority rng ~size nodes in
           let rest = List.filter (fun n -> not (List.mem n minority)) nodes in
           [
             { at_s = at; fault = true;
               act = (fun () -> Topology.partition (World.topology w) [ minority; rest ]) };
             { at_s = at +. down; fault = false;
               act = (fun () -> Topology.merge_all (World.topology w)) };
           ]
         | kind ->
           (* a crash, then a clean recovery; or a crash that also
              corrupts the log's head record, forcing an amnesiac
              rejoin by state transfer *)
           let victim = Sim.Rng.pick rng replicas in
           [
             { at_s = at; fault = true;
               act =
                 (fun () ->
                   Replica.crash victim;
                   if kind = 2 && Replica.log_entries victim > 0 then
                     ignore (Replica.corrupt_log victim ~nth:0)) };
             { at_s = at +. down; fault = false; act = (fun () -> Replica.recover victim) };
           ]))

let churn () =
  {
    c_world =
      (fun ~seed ->
        World.make ~net_config:Network.lan_gigabit ~params:Params.default
          ~disk_config:churn_disk ~attach_cpu:true ~seed ~n:churn_replicas ());
    c_sessions = churn_sessions;
    c_limit_ms = 50.;
    c_prepare = (fun ~seed:_ _ -> ());
    c_op =
      (fun i ->
        let id = session_id ~replicas:churn_replicas i in
        (Action.Update [ Op.Add (counter_key id, 1) ], committed_empty));
    c_faults = churn_faults;
    c_check =
      (fun w sessions ->
        let ledgers =
          List.map
            (fun c ->
              {
                Consistency.l_client = Client.id c;
                l_key = counter_key (Client.id c);
                l_issued = Client.issued c;
                l_acked = Client.acked c;
              })
            sessions
        in
        List.map
          (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
          (Consistency.check_exactly_once ~ledgers (World.replicas w)));
  }

let churn_shape =
  {
    members = churn_replicas;
    net = Network.lan_gigabit;
    disk = churn_disk;
    action_size = 200;
    preload = ignore;
    ops =
      (fun ~seed ->
        let rng = Sim.Rng.of_int seed in
        fun () ->
          let id = session_id ~replicas:churn_replicas (Sim.Rng.int rng churn_sessions) in
          (Action.Update [ Op.Add (counter_key id, 1) ], committed_empty));
  }

(* ------------------------------------------------------------------ *)
(* open_ladder: open-loop Poisson arrivals on the BENCH_9 profile      *)

let ladder_rates = [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000. ]

(* The headline rate is one the cluster carries without shedding.  At
   4000/s admission sheds 4-8% of arrivals and the p99 swings between 22
   and 38 ms from seed to seed; at 3000/s a few requests per thousand
   still meet a Busy backoff, enough to flip the p999 between 8 and
   23 ms.  At 2000/s nothing is shed and every percentile is steady. *)
let ladder_headline = 2000.
let ladder_limit_ms = 100.
let ladder_replicas = 5
let ladder_keys = 64
let ladder_admission = { Replica.adm_max_inflight = 8; adm_max_red = 64 }

let ladder_key i = Printf.sprintf "k%d" i

let ladder_world ~seed =
  World.make ~net_config:Network.lan_100mbit ~params:Params.default ~attach_cpu:true
    ~admission:ladder_admission ~seed ~n:ladder_replicas ()

type rung = {
  rate : float;
  ep : episode;
  counted : (window * int) option;  (* with its completions *)
  meets_slo : bool;
}

(* One rate: a fresh cluster, 0.5 s to form, 0.5 s of load before the
   window; the headline rate is measured three times longer than the
   others, long enough for a p999.  Every arrival goes to an idle
   session of a pool, or to a new session when none is idle; its
   latency is timed from its due time (arrivals are simulator events,
   so the generator is never late). *)
let run_rung ~seed ~window_s ~mode ~headline rate =
  let t_start = cpu_s () in
  let rung_seed = (seed * 104_729) + int_of_float rate in
  let w = ladder_world ~seed:rung_seed in
  let sim = World.sim w in
  let keys = Array.init ladder_keys ladder_key in
  World.run w ~ms:500.;
  let tr = tracker sim ~limit_ms:ladder_limit_ms in
  let arrivals = Sim.Rng.of_int (rung_seed + 1) in
  let idle = Stack.create () and sessions = ref [] and created = ref 0 in
  let session () =
    match Stack.pop_opt idle with
    | Some c -> c
    | None ->
      let c =
        Client.create ~sim ~id:(session_id ~replicas:ladder_replicas !created)
          ~replicas:(fun () -> World.replicas w)
          ()
      in
      incr created;
      sessions := c :: !sessions;
      c
  in
  let rec arrive () =
    if tr.issuing then begin
      let c = session () in
      let op =
        Op.Set (keys.(Sim.Rng.int arrivals ladder_keys), Value.Int (Sim.Rng.int arrivals 1000))
      in
      exec tr c (Action.Update [ op ]) ~check:committed_empty ~k:(fun () -> Stack.push c idle);
      let gap = Sim.Rng.exponential arrivals ~mean:(1. /. rate) in
      ignore (Sim.Engine.schedule sim ~delay:(Time.of_sec gap) arrive)
    end
  in
  arrive ();
  World.run w ~ms:500.;
  let setup_cpu = cpu_s () -. t_start in
  if mode = Setup_only then
    { rate; ep = setup_episode setup_cpu; counted = None; meets_slo = false }
  else begin
    let window_s = if headline then window_s else window_s /. 3. in
    open_window tr ~span:(Time.of_sec window_s);
    let outstanding () = sum Client.outstanding !sessions in
    let probe =
      if mode = Traced && headline then Some (start_probe tr w outstanding) else None
    in
    let m = meter w ~sessions:(fun () -> !sessions) in
    let c0 = cpu_s () and w0 = Unix.gettimeofday () and m0 = Gc.minor_words () in
    Sim.Engine.run ~until:tr.close_at sim;
    let window_cpu = cpu_s () -. c0
    and window_wall = Unix.gettimeofday () -. w0
    and minor_words = Gc.minor_words () -. m0 in
    let counted = m.close () in
    let backlog = outstanding () in
    tr.issuing <- false;
    settle w outstanding;
    Option.iter Probe.stop probe;
    (* The SLO: p99 within the limit; at most 1% of requests shed, timed
       out or lost; and no growing backlog — at the window's end no more
       requests outstanding than the rate completes within the limit
       (Little's law). *)
    let refused =
      get "busy" counted.counts + get "timeouts" counted.counts + tr.attempted - tr.completed
    in
    let meets_slo =
      (match Sample.percentile tr.lat 99. with Some p -> p <= ladder_limit_ms | None -> false)
      && float_of_int refused <= 0.01 *. float_of_int tr.attempted
      && float_of_int backlog <= rate *. ladder_limit_ms /. 1000.
    in
    let ep =
      {
        lat = tr.lat;
        goodput = float_of_int tr.good /. window_s;
        slo_rate = 0.;
        unavailable_ms = unavailable tr;
        faults = List.length tr.faults;
        attempted = tr.attempted;
        failed = tr.attempted - tr.completed + tr.wrong;
        completions = tr.completed;
        setup_cpu;
        window_cpu;
        window_wall;
        minor_words;
        layer = [];
        recoveries_ms = [];
        probe;
        violations = consistency w @ List.rev tr.errors;
      }
    in
    { rate; ep; counted = Some (counted, tr.completed); meets_slo }
  end

(* Latency, goodput, host cost and allocation come from the headline
   rate; the SLO rate, attempts and the per-layer counters from every
   rate.  Host time at the overloaded rates mostly measures retry
   storms of thousands of sessions, and swings with them. *)
let run_ladder ~seed ~window_s ~mode =
  let rungs =
    List.map
      (fun rate -> run_rung ~seed ~window_s ~mode ~headline:(rate = ladder_headline) rate)
      ladder_rates
  in
  let head = (List.find (fun r -> r.rate = ladder_headline) rungs).ep in
  let total f = List.fold_left (fun acc r -> acc +. f r.ep) 0. rungs in
  let totali f = List.fold_left (fun acc r -> acc + f r.ep) 0 rungs in
  let counted = List.filter_map (fun r -> r.counted) rungs in
  {
    head with
    slo_rate =
      List.fold_left (fun acc r -> if r.meets_slo then Float.max acc r.rate else acc) 0. rungs;
    attempted = totali (fun e -> e.attempted);
    failed = totali (fun e -> e.failed);
    setup_cpu = total (fun e -> e.setup_cpu);
    layer =
      (match counted with
      | [] -> []
      | first :: rest ->
        let w, completions =
          List.fold_left (fun (w, n) (w', n') -> (add_windows w w', n + n')) first rest
        in
        layer_metrics w ~completions);
    violations = List.concat_map (fun r -> r.ep.violations) rungs;
  }

let ladder_shape =
  {
    members = ladder_replicas;
    net = Network.lan_100mbit;
    disk = { Disk.default_forced with sync_latency = Time.of_ms 1. };
    action_size = 200;
    preload = ignore;
    ops =
      (fun ~seed ->
        let rng = Sim.Rng.of_int seed in
        fun () ->
          ( Action.Update
              [ Op.Set (ladder_key (Sim.Rng.int rng ladder_keys), Value.Int (Sim.Rng.int rng 1000)) ],
            committed_empty ));
  }

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

type workload = {
  name : string;
  window_s : float;  (* the measured virtual window (per rate on the ladder) *)
  shape : shape;
  run : seed:int -> window_s:float -> mode:mode -> episode;
}

(* knee's window is the 2 s that [Experiment] measures Fig. 5(b) over,
   so the two agree to the completion ([crosscheck]). *)
let knee_workload = { name = "knee"; window_s = 2.; shape = knee_shape; run = run_closed knee }

let all =
  [
    knee_workload;
    {
      name = "kv_forced";
      window_s = 5.;
      shape = kv_shape;
      run = (fun ~seed ~window_s ~mode -> run_closed (kv_forced ()) ~seed ~window_s ~mode);
    };
    { name = "open_ladder"; window_s = 6.; shape = ladder_shape; run = run_ladder };
    {
      name = "churn";
      window_s = 24.;
      shape = churn_shape;
      run = (fun ~seed ~window_s ~mode -> run_closed (churn ()) ~seed ~window_s ~mode);
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
