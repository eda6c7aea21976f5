(* The replication-engine benchmark program.  See README.md for the
   workloads, the metrics and how to run and compare.

     benchmark.exe run --seed S [--workload W] [--seconds N]
                       [--trace 0|1|FILE] [--json FILE]
     benchmark.exe smoke [--benchmark-json FILE]
     benchmark.exe crosscheck

   [run] prints every metric by name with its unit, then, as its last
   line, one JSON object {correct, attempted, failed, metrics}; it exits
   non-zero when a correctness check fails.  Without [--workload] every
   workload runs in its own process, one after another. *)

module Sim = Repro_sim
module Experiment = Repro_harness.Experiment

(* ------------------------------------------------------------------ *)
(* Metrics of one run                                                  *)

(* A reading: value, sample count, and the percentile actually read
   when the sample could not support the one asked for. *)
let some ?count v = Some (v, count, None)

let pct sample p =
  Option.map
    (fun (v, at) -> (v, Some (Sample.count sample), if at = p then None else Some at))
    (Sample.percentile_at sample p)

(* Order [values] by [table].  [missing] says what stands for a metric
   the run had nothing to measure with. *)
let tabulate ~missing table values =
  List.filter_map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some (Some (value, count, read_at)) when Float.is_finite value ->
        Some (Metric.v ?count ?read_at name unit_ value)
      | _ -> missing name unit_)
    table

let host_us_per_op (ep : Workloads.episode) =
  ep.window_cpu *. 1e6 /. float_of_int (max 1 ep.completions)

let alloc_words_per_op (ep : Workloads.episode) =
  ep.minor_words /. float_of_int (max 1 ep.completions)

(* The virtual part of an episode, printed exactly: equal seeds must
   give equal strings. *)
let signature (ep : Workloads.episode) =
  let p q = match Sample.percentile ep.lat q with Some v -> Json.number v | None -> "-" in
  String.concat " "
    [
      Json.number ep.goodput; Json.number ep.slo_rate; Json.number ep.unavailable_ms;
      string_of_int ep.attempted; string_of_int ep.failed; string_of_int (Sample.count ep.lat);
      p 50.; p 99.; p 99.9;
    ]

(* Every episode repeats the same work, and the host's neighbours only
   ever add time to it, so the fastest episode is the closest reading of
   the program's own cost: on a shared 2-vCPU Xeon, single knee episodes
   read 74-127 µs/op over nine minutes while the fastest of every 14 in
   a row (one run's worth) read 74-79. *)
let end_to_end_values (first : Workloads.episode) ~episodes ~setups ~peak_heap_mb =
  let fastest f = List.fold_left (fun acc ep -> Float.min acc (f ep)) Float.infinity episodes in
  [
    ("goodput_per_s", some first.goodput ~count:(Sample.count first.lat));
    ("latency_p50_ms", pct first.lat 50.);
    ("latency_p99_ms", pct first.lat 99.);
    ("latency_p999_ms", pct first.lat 99.9);
    ("slo_rate_per_s", some first.slo_rate);
    ( "unavailable_ms",
      some first.unavailable_ms
        ~count:(if first.faults > 0 then first.faults else Sample.count first.lat) );
    ("host_us_per_op", some (fastest host_us_per_op) ~count:(List.length episodes));
    ("alloc_words_per_op", some (alloc_words_per_op first));
    ("peak_heap_mb", some peak_heap_mb);
    ("setup_s", some (Sample.median setups) ~count:(List.length setups));
  ]

(* The traced run: the program's own counters (from the untraced
   episode), the probe's samples (from the traced one) and the layer
   isolation rigs, each under its own spans. *)
let per_layer_values (w : Workloads.workload) ~seed ~(untraced : Workloads.episode)
    ~(traced : Workloads.episode) ~host_us ~rigs =
  let probe = Option.get traced.probe in
  let spans label =
    let s = Spans.create () in
    rigs := (label, s) :: !rigs;
    s
  in
  let counter name =
    match Metric.find name untraced.layer with Some m -> m.Metric.value | None -> nan
  in
  let depth = int_of_float (Option.value (Sample.percentile probe.Probe.queue_depth 50.) ~default:1.) in
  let step_ns = Layers.sim_step_ns (spans "sim") ~seed ~depth in
  let deliver_ns = Layers.net_deliver_ns (spans "net") ~seed w.shape in
  let gcs =
    Layers.gcs_group (spans "gcs") ~seed ~rate:(Float.max 100. untraced.goodput) ~window_s:2. w.shape
  in
  let exchange_us = Layers.exchange_us (spans "core") ~members:w.shape.members in
  let burst =
    int_of_float (Float.round (Option.value (Sample.mean probe.Probe.bursts) ~default:1.))
  in
  let append_us = Layers.storage_append_us (spans "storage") ~seed ~burst w.shape in
  let execute_us = Layers.execute_us (spans "db") ~seed w.shape in
  let applies = counter "db.applies_per_op" in
  let spreads = Probe.apply_spreads probe in
  let counters =
    List.map (fun (m : Metric.t) -> (m.name, some m.value)) untraced.layer
  in
  counters
  @ [
      ("sim.step_ns", some step_ns);
      ("sim.queue_depth_p99", pct probe.Probe.queue_depth 99.);
      ("net.deliver_ns", some deliver_ns);
      ("net.cpu_queue_p99", pct probe.Probe.cpu_queue 99.);
      ("gcs.safe_delivery_ms_p50", pct gcs.Layers.safe_ms 50.);
      ("gcs.safe_delivery_ms_p99", pct gcs.Layers.safe_ms 99.);
      ("gcs.msgs_per_delivery", some gcs.Layers.msgs_per_delivery);
      ("gcs.bytes_per_delivery", some gcs.Layers.bytes_per_delivery);
      ("gcs.host_us_per_op", some gcs.Layers.host_us_per_op);
      ("core.exchange_us", some exchange_us);
      (* What the isolation rigs do not account for: the engine,
         the replica glue and the client sessions.  Per operation every
         replica logs a red and a green record and applies it once, and
         its creator logs it as ongoing. *)
      ( "core.residual_us_per_op",
        some
          (host_us -. gcs.Layers.host_us_per_op
          -. (append_us *. ((2. *. applies) +. 1.))
          -. (execute_us *. applies)) );
      ("storage.append_us_per_record", some append_us);
      ( "storage.recovery_ms",
        match untraced.recoveries_ms with
        | [] -> None
        | l -> some (Sample.median l) ~count:(List.length l) );
      ("db.execute_us_per_op", some execute_us);
      ( "db.apply_spread_ms",
        Option.map (fun v -> (v, Some (Sample.count spreads), None)) (Sample.mean spreads) );
      ("client.outstanding_p99", pct probe.Probe.backlog 99.);
      ("trace.overhead_us_per_op", some (host_us_per_op traced -. host_us));
    ]

let names table = List.map (fun (name, unit_, _) -> (name, unit_)) table

let end_to_end_names =
  List.map (fun (name, unit_, better, _) -> (name, unit_, better)) Metric.end_to_end

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)

(* Set-up time is the median of at least this many set-ups: one alone
   moves by a quarter between runs on a shared host. *)
let min_setups = 5

let run_one (w : Workloads.workload) ~seed ~seconds ~trace ~json =
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  let run mode =
    let ep = w.run ~seed ~window_s:w.window_s ~mode in
    (* Start every episode from a collected heap, so one episode's
       garbage is not charged to the next one's window. *)
    Gc.full_major ();
    ep
  in
  let first = run Workloads.Untraced in
  (* The heap's high-water mark is read after the first episode, which
     starts from a fresh process: how many episodes follow depends on
     the host's speed, and must not move it. *)
  let peak_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6 in
  let episodes = ref [ first ] and violations = ref first.violations in
  let traced = trace <> "0" in
  (* Repeat the same seeded episode while another fits in the time
     given: the exact results must repeat, and the host time is the
     fastest episode's.  A traced run measures the same untraced
     episodes first, then one traced episode. *)
  let mean_episode () = elapsed () /. float_of_int (List.length !episodes) in
  while elapsed () +. mean_episode () <= float_of_int seconds do
    let ep = run Workloads.Untraced in
    if signature ep <> signature first then
      violations :=
        Printf.sprintf "episode %d repeated the seed with different results: %s vs %s"
          (List.length !episodes + 1) (signature ep) (signature first)
        :: !violations;
    episodes := ep :: !episodes
  done;
  let setups = ref (List.map (fun (ep : Workloads.episode) -> ep.setup_cpu) !episodes) in
  while List.length !setups < min_setups do
    setups := (run Workloads.Setup_only).setup_cpu :: !setups
  done;
  let e2e =
    tabulate ~missing:(fun _ _ -> None) (names end_to_end_names)
      (end_to_end_values first ~episodes:!episodes ~setups:!setups ~peak_heap_mb)
  in
  let layer =
    if not traced then []
    else begin
      let t = run Workloads.Traced in
      if signature t <> signature first then
        violations :=
          !violations
          @ [ Printf.sprintf "the traced episode diverged from the untraced one: %s vs %s"
                (signature t) (signature first) ];
      violations := !violations @ t.violations;
      let rigs = ref [] in
      let host_us = (Option.get (Metric.find "host_us_per_op" e2e)).Metric.value in
      let values = per_layer_values w ~seed ~untraced:first ~traced:t ~host_us ~rigs in
      let layer =
        tabulate
          ~missing:(fun name unit_ -> Some (Metric.v ~count:0 name unit_ 0.))
          (names Metric.per_layer) values
      in
      if trace <> "1" then begin
        let requests = Spans.create () in
        Probe.record_spans (Option.get t.probe) requests;
        let oc = open_out_bin trace in
        output_string oc
          (Json.to_string
             (Json.Obj
                (("workload", Json.Str w.name)
                :: ("seed", Json.Num (float_of_int seed))
                :: ("requests", Spans.to_json requests)
                :: List.rev_map (fun (label, s) -> (label, Spans.to_json s)) !rigs)));
        output_char oc '\n';
        close_out oc
      end;
      layer
    end
  in
  if first.failed > 0 then
    violations :=
      !violations
      @ [ Printf.sprintf "%d of %d requests never got a correct answer" first.failed
            first.attempted ];
  let correct = !violations = [] in
  let ppf = Format.std_formatter in
  Format.fprintf ppf "== %s  seed %d  %s window %g virtual s, %d episode(s), %.1f s wall@."
    w.name seed (if traced then "traced," else "") w.window_s (List.length !episodes)
    (elapsed ());
  List.iter (Metric.pp ppf) e2e;
  Metric.pp ppf
    (Metric.v "failed_frac" "ratio"
       (float_of_int first.failed /. float_of_int (max 1 first.attempted))
       ~count:first.attempted);
  Metric.pp ppf
    (Metric.v "wall_s_per_episode" "s"
       (Sample.median (List.map (fun (e : Workloads.episode) -> e.window_wall) !episodes)));
  List.iter (Metric.pp ppf) layer;
  List.iter (fun v -> Format.fprintf ppf "FAILED CHECK: %s@." v) !violations;
  let outcome ~counts metrics =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int first.attempted));
      ("failed", Json.Num (float_of_int first.failed));
      ("metrics", Metric.to_json ~counts metrics);
    ]
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (Json.Obj
              (("workload", Json.Str w.name)
              :: ("seed", Json.Num (float_of_int seed))
              :: ("traced", Json.Bool traced)
              :: outcome ~counts:true (e2e @ layer))));
      output_char oc '\n';
      close_out oc)
    json;
  Format.fprintf ppf "%s@."
    (Json.to_string (Json.Obj (outcome ~counts:false (if traced then layer else e2e))));
  if correct then 0 else 1

(* Every workload, each in its own process, one after another. *)
let run_all ~args ~trace =
  List.fold_left
    (fun status (w : Workloads.workload) ->
      let trace =
        if trace = "0" || trace = "1" then trace
        else Printf.sprintf "%s-%s.json" (Filename.remove_extension trace) w.name
      in
      let argv =
        Array.of_list
          ((Sys.executable_name :: "run" :: "--workload" :: w.name :: "--trace" :: trace :: args))
      in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _ -> 1)
    0 Workloads.all

(* ------------------------------------------------------------------ *)
(* Smoke: determinism and the metric catalogue                         *)

(* The seed the paper-figure harness defaults to. *)
let fixed_seed = 97

let smoke ~benchmark_json =
  let seed = fixed_seed in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (w : Workloads.workload) ->
      let once () =
        let ep = w.run ~seed ~window_s:0.5 ~mode:Workloads.Untraced in
        Gc.full_major ();
        ep
      in
      let a = once () in
      let b = once () in
      let show ep = signature ep ^ " alloc " ^ Json.number (alloc_words_per_op ep) in
      if show a <> show b then fail "%s: two runs of seed %d differ: %s vs %s" w.name seed (show a) (show b);
      List.iter (fun v -> fail "%s: %s" w.name v) a.violations;
      Printf.printf "smoke %-12s %s\n%!" w.name (show a))
    Workloads.all;
  (* The catalogue: BENCHMARK.json must list exactly what the benchmark
     reports, under the same units and directions, and its workloads. *)
  (match Json.parse (Json.read_file benchmark_json) with
  | exception (Sys_error e | Json.Error e) -> fail "%s: %s" benchmark_json e
  | spec ->
    let listed key =
      List.map
        (fun m ->
          let s k = Option.value (Option.bind (Json.member k m) Json.to_str) ~default:"?" in
          (s "name", s "unit", s "better"))
        (Json.to_list (Option.value (Json.member key spec) ~default:Json.Null))
    in
    if listed "end_to_end" <> end_to_end_names then
      fail "BENCHMARK.json end_to_end differs from the benchmark's";
    if listed "per_layer" <> Metric.per_layer then
      fail "BENCHMARK.json per_layer differs from the benchmark's";
    let names =
      List.filter_map
        (fun m -> Option.bind (Json.member "name" m) Json.to_str)
        (Json.to_list (Option.value (Json.member "workloads" spec) ~default:Json.Null))
    in
    if names <> List.map (fun (w : Workloads.workload) -> w.name) Workloads.all then
      fail "BENCHMARK.json workloads differ from the benchmark's");
  match !failures with
  | [] ->
    print_endline "smoke OK";
    0
  | l ->
    List.iter (fun f -> Printf.printf "SMOKE FAILED: %s\n" f) (List.rev l);
    1

(* ------------------------------------------------------------------ *)
(* Cross-check against the paper-figure harness                        *)

(* One [knee] episode measured through client sessions, and the same
   point through [Experiment] (the Fig. 5(b) harness, over the same 2 s
   window): both must count the same completions, so the sessions
   measure the same program as the figures. *)
let crosscheck () =
  let seed = fixed_seed and w = Workloads.knee_workload in
  let ep = w.run ~seed ~window_s:w.window_s ~mode:Workloads.Untraced in
  let r =
    Experiment.run ~duration:(Sim.Time.of_sec w.window_s) ~seed ~clients:14
      (Experiment.Engine_protocol Repro_storage.Disk.Delayed)
  in
  let p50 = Option.value (Sample.percentile ep.lat 50.) ~default:nan in
  Printf.printf "knee:           %s ops/s, p50 %s ms (%d completions)\n" (Json.number ep.goodput)
    (Json.number p50) ep.completions;
  Printf.printf "Experiment.run: %s ops/s, p99 %s ms (%d completions)\n"
    (Json.number r.Experiment.r_throughput) (Json.number r.Experiment.r_p99_latency_ms)
    r.Experiment.r_completed;
  List.iter print_endline ep.violations;
  if
    ep.goodput = r.Experiment.r_throughput
    && ep.completions = r.Experiment.r_completed
    && ep.violations = []
  then begin
    print_endline "crosscheck OK";
    0
  end
  else begin
    print_endline "crosscheck FAILED";
    1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: benchmark.exe run --seed S [--workload W] [--seconds N] [--trace 0|1|FILE] \
     [--json FILE]\n\
    \       benchmark.exe smoke [--benchmark-json FILE]\n\
    \       benchmark.exe crosscheck";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let command, options =
    match args with cmd :: rest -> (cmd, opts [] rest) | [] -> usage ()
  in
  let get key ~default = Option.value (List.assoc_opt key options) ~default in
  let int key ~default =
    match int_of_string_opt (get key ~default:(string_of_int default)) with
    | Some n -> n
    | None -> usage ()
  in
  let status =
    match command with
    | "run" -> (
      let seed = int "--seed" ~default:fixed_seed in
      let seconds = int "--seconds" ~default:25 in
      let trace = get "--trace" ~default:"0" and json = List.assoc_opt "--json" options in
      match List.assoc_opt "--workload" options with
      | Some name -> (
        match Workloads.find name with
        | Some w -> run_one w ~seed ~seconds ~trace ~json
        | None ->
          Printf.eprintf "unknown workload %S\n" name;
          2)
      | None ->
        let passed =
          List.concat_map
            (fun (k, v) -> if k = "--trace" then [] else [ k; v ])
            (List.rev options)
        in
        run_all ~args:passed ~trace)
    | "smoke" -> smoke ~benchmark_json:(get "--benchmark-json" ~default:"BENCHMARK.json")
    | "crosscheck" -> crosscheck ()
    | _ -> usage ()
  in
  exit status
