(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7) and ablations A1-A5 on the simulated
   substrate, with shape checks after them.  Host cost per layer is
   timed by benchmark/layers.ml, not here.

   Run with:  dune exec bench/main.exe            (full suite)
              dune exec bench/main.exe -- quick   (shorter sweeps)   *)

module Sim = Repro_sim
module Check = Repro_check
open Repro_harness

let ppf = Format.std_formatter

let quick = Array.exists (String.equal "quick") Sys.argv

let duration = Sim.Time.of_sec (if quick then 2. else 6.)
let clients = if quick then [ 1; 4; 8; 14 ] else [ 1; 2; 4; 6; 8; 10; 12; 14 ]

(* ------------------------------------------------------------------ *)
(* Protocol sanity: run the repcheck invariant monitor over a churn
   scenario before timing anything — numbers from a broken protocol
   would be meaningless.                                                *)

let repcheck_sanity () =
  let w = World.make ~seed:2002 ~n:5 () in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  for i = 1 to 20 do
    World.submit_update w ~node:(i mod 5) ~key:(Printf.sprintf "s%d" i) i
  done;
  World.run w ~ms:500.;
  Repro_net.Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  Repro_core.Replica.crash (World.replica w 3);
  World.heal_and_settle ~ms:5000. w;
  World.assert_ok w ~ledgers:[];
  Format.fprintf ppf "repcheck: %d sweeps over the sanity scenario, clean@."
    (Check.Monitor.observations mon)

(* ------------------------------------------------------------------ *)
(* Recovery cost: how long a crashed replica takes to get back into the
   group, by log length, checkpoint freshness and the storage verdict
   its write-ahead log recovery returns.  "rec ms" is virtual time from
   [Replica.recover] until the replica is ready and has caught back up
   to its peers' green count; "entries" is the durable log replayed (or
   discarded, for amnesia); "flushes" the physical flushes recovery and
   catch-up cost; "xfer" the state-transfer chunks the peers served —
   amnesia looks fast on the clock precisely because it ships the
   compacted snapshot over the wire instead of replaying locally.      *)

let recovery_table () =
  let module Disk = Repro_storage.Disk in
  let module Replica = Repro_core.Replica in
  let module Action = Repro_db.Action in
  Format.fprintf ppf
    "@.== Recovery cost: log length x checkpoint freshness x verdict ==@.";
  Format.fprintf ppf "%6s %10s %9s %14s %8s %8s %6s %9s@." "log" "checkpoint"
    "fault" "verdict" "entries" "flushes" "xfer" "rec ms";
  let lengths = if quick then [ 60; 240 ] else [ 60; 240; 960 ] in
  let cadences = [ (None, "never"); (Some 50, "every 50") ] in
  let faults =
    [ ("none", `Clean); ("torn", `Torn); ("interior", `Interior);
      ("head", `Head) ]
  in
  List.iter
    (fun len ->
      List.iter
        (fun (cadence, cadence_name) ->
          List.iter
            (fun (fault_name, fault) ->
              let fault_cfg =
                match fault with
                | `Torn ->
                  { Disk.no_faults with torn_tail_on_crash = 1.0 }
                | _ -> Disk.no_faults
              in
              let disk_config =
                {
                  Disk.default_forced with
                  sync_latency = Sim.Time.of_ms 1.;
                  sync_jitter = 0.;
                  faults = fault_cfg;
                }
              in
              let w =
                World.make ~disk_config ~checkpoint_every:cadence ~seed:7
                  ~n:3 ()
              in
              World.run w ~ms:1000.;
              let victim = World.replica w 2 in
              let submitted = ref 0 in
              while !submitted < len do
                for _ = 1 to 20 do
                  incr submitted;
                  World.submit_update w ~node:(!submitted mod 3)
                    ~key:(Printf.sprintf "r%d" (!submitted mod 16))
                    !submitted
                done;
                World.run w ~ms:200.
              done;
              World.run w ~ms:1000.;
              (match fault with
              | `Torn ->
                (* Leave a record in flight so the crash tears it. *)
                Replica.submit victim
                  (Action.Update
                     [ Repro_db.Op.Set ("torn", Repro_db.Value.Int 1) ])
                  ~on_response:(fun _ -> ())
              | _ -> ());
              Replica.crash victim;
              (match fault with
              | `Interior ->
                ignore
                  (Replica.corrupt_log victim
                     ~nth:(Replica.log_entries victim - 1))
              | `Head -> ignore (Replica.corrupt_log victim ~nth:0)
              | `Clean | `Torn -> ());
              let entries = Replica.log_entries victim in
              let flushes0 = Replica.log_flushes victim in
              let chunks () =
                List.fold_left
                  (fun acc r -> acc + Replica.transfer_chunks_sent r)
                  0 (World.replicas w)
              in
              let chunks0 = chunks () in
              let sim = World.sim w in
              let t0 = Sim.Engine.now sim in
              Replica.recover victim;
              let peer = World.replica w 0 in
              let caught_up () =
                Replica.is_ready victim
                && Repro_core.Engine.green_count (Replica.engine victim)
                   >= Repro_core.Engine.green_count (Replica.engine peer)
              in
              let slices = ref 0 in
              while (not (caught_up ())) && !slices < 30_000 do
                incr slices;
                World.run w ~ms:1.
              done;
              let rec_ms =
                Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now sim) t0)
              in
              Format.fprintf ppf "%6d %10s %9s %14s %8d %8d %6d %8.1f%s@." len
                cadence_name fault_name
                (match Replica.last_recovery victim with
                | Some v -> Format.asprintf "%a" Repro_core.Persist.pp_verdict v
                | None -> "-")
                entries
                (Replica.log_flushes victim - flushes0)
                (chunks () - chunks0) rec_ms
                (if caught_up () then "" else "  (never caught up)"))
            faults)
        cadences)
    lengths

(* ------------------------------------------------------------------ *)
(* Model checking: state-space size and throughput at growing bounds —
   the cost curve of the mcheck exhaustive smoke, and how much of the
   naive branching the reductions remove.                              *)

let mcheck_space () =
  Format.fprintf ppf "@.== Model checker: state space and throughput ==@.";
  Format.fprintf ppf
    "%8s %7s %8s %10s %10s %8s %8s %10s@." "depth" "faults" "states"
    "distinct" "branches" "DPORx" "sleep" "states/s";
  let bounds =
    if quick then [ (6, 1); (8, 2) ] else [ (6, 1); (8, 2); (10, 2); (12, 2) ]
  in
  List.iter
    (fun (depth, faults) ->
      let o =
        Repro_mcheck.Explore.run ~nodes:3 ~depth ~faults ~submits:0 ()
      in
      let st = o.Repro_mcheck.Explore.stats in
      Format.fprintf ppf "%8d %7d %8d %10d %10d %7.2fx %8d %10.0f@." depth
        faults st.Repro_mcheck.Explore.st_states
        st.Repro_mcheck.Explore.st_distinct
        st.Repro_mcheck.Explore.st_branches
        (Repro_mcheck.Explore.reduction_factor st)
        st.Repro_mcheck.Explore.st_sleep_skips
        (float_of_int st.Repro_mcheck.Explore.st_states
        /. Float.max 1e-6 st.Repro_mcheck.Explore.st_elapsed);
      if o.Repro_mcheck.Explore.found <> None then
        Format.fprintf ppf "UNEXPECTED violation on the correct engine@.")
    bounds

(* ------------------------------------------------------------------ *)
(* Macro benchmarks: the paper's figures and tables.                   *)

let check_shape name ok =
  Format.fprintf ppf "shape check [%s]: %s@." name
    (if ok then "PASS" else "DIVERGES (see EXPERIMENTS.md)")

let last series = List.nth series (List.length series - 1) |> snd

let figure_5a () =
  let named = Figures.figure_5a ~clients ~duration ppf () in
  let get n = List.assoc n named in
  let engine = get "engine (forced writes)"
  and corel = get "COReL"
  and twopc = get "2PC" in
  check_shape "engine >= COReL >= 2PC at max clients"
    (last engine >= last corel && last corel >= last twopc *. 0.9);
  check_shape "engine beats COReL by >1.5x at max clients"
    (last engine > 1.5 *. last corel)

(* The seed's Figure 5(b) delayed-writes knee (EXPERIMENTS.md before the
   hot-path batching overhaul), the bound the 10x shape check is
   measured against. *)
let seed_5b_delayed_at_14 = 2844.

let figure_5b () =
  let named = Figures.figure_5b ~clients ~duration ppf () in
  let delayed = List.assoc "engine (delayed writes)" named
  and forced = List.assoc "engine (forced writes)" named in
  check_shape "delayed writes dominate forced" (last delayed > 2. *. last forced);
  check_shape "delayed knee >= 10x the seed's 2844/s at max clients"
    (last delayed >= 10. *. seed_5b_delayed_at_14);
  check_shape "delayed writes flatten toward a processing cap"
    (let n = List.length delayed in
     n < 3
     ||
     let tput_at i = snd (List.nth delayed i) in
     let clients_at i = float_of_int (fst (List.nth delayed i)) in
     let slope_late =
       (tput_at (n - 1) -. tput_at (n - 2))
       /. (clients_at (n - 1) -. clients_at (n - 2))
     in
     let slope_early = (tput_at 1 -. tput_at 0) /. (clients_at 1 -. clients_at 0) in
     slope_late < slope_early)

let latency_table () =
  let named = Figures.latency_table ppf () in
  let mean_of name =
    let series = List.assoc name named in
    List.fold_left (fun acc (_, v) -> acc +. v) 0. series
    /. float_of_int (List.length series)
  in
  let twopc = mean_of "2PC"
  and corel = mean_of "COReL"
  and engine = mean_of "engine (forced writes)" in
  check_shape "2PC pays roughly one extra forced write"
    (twopc > corel +. 5. && twopc < corel +. 18.);
  check_shape "engine and COReL within 25%"
    (Float.abs (engine -. corel) < 0.25 *. corel)

let wan () =
  let rows = Figures.wan_prediction ppf () in
  match rows with
  | [ (_, twopc_lan, twopc_wan); (_, corel_lan, corel_wan); (_, eng_lan, eng_wan) ]
    ->
    check_shape "2PC pays the most added WAN latency"
      (twopc_wan -. twopc_lan > corel_wan -. corel_lan);
    check_shape "the engine pays the least added WAN latency"
      (eng_wan -. eng_lan <= corel_wan -. corel_lan)
  | _ -> ()

let ablations () =
  let acks = Figures.ablation_ack_batching ~duration ppf () in
  (match (acks, List.rev acks) with
  | (_, tput_small) :: _, (_, tput_big) :: _ ->
    check_shape "ack batching amortises the safe-delivery cost"
      (tput_big > tput_small)
  | _ -> ());
  let (ordered_tput, _), (local_tput, local_lat) =
    Figures.ablation_query_path ~duration ppf ()
  in
  check_shape "local read path beats ordered reads"
    (local_tput > 1.5 *. ordered_tput && local_lat < 10.);
  let (dlv_casc, sta_casc), _chaos = Figures.ablation_quorum_availability ppf () in
  check_shape "dynamic linear voting wins under cascading splits"
    (dlv_casc > sta_casc);
  let timeline = Figures.partition_timeline ppf () in
  let rate_near t =
    List.fold_left
      (fun acc (s, r) -> if Float.abs (s -. t) <= 1. then max acc r else acc)
      0. timeline
  in
  check_shape "majority keeps committing during the partition"
    (rate_near 9. > 0.);
  ignore (Figures.ablation_scale ~duration ppf ())

let () =
  Format.fprintf ppf
    "Reproduction benchmarks: From Total Order to Database Replication@.\
     (Amir & Tutu, ICDCS 2002) — simulated substrate, virtual time.@.";
  repcheck_sanity ();
  recovery_table ();
  mcheck_space ();
  figure_5a ();
  figure_5b ();
  latency_table ();
  wan ();
  ablations ();
  Format.fprintf ppf "@.bench: done@."
