(* One reported number: a name, its value, its unit, and for a
   percentile or a mean, the sample count it was read from. *)

type t = {
  name : string;
  unit_ : string;
  value : float;
  count : int option;  (* Some 0: the run had nothing to measure *)
  read_at : float option;  (* the percentile read, when lower than the one named *)
}

let v ?count ?read_at name unit_ value = { name; unit_; value; count; read_at }

let find name l = List.find_opt (fun m -> String.equal m.name name) l

let measured m = m.count <> Some 0

(* Exact metrics repeat exactly for a seed: the virtual ones, and the
   words allocated.  Noisy ones measure the program on its host and vary
   from run to run. *)
type kind = Exact | Noisy

(* Every metric the benchmark reports: name, unit, which way is better
   (and for an end-to-end one, its kind).  BENCHMARK.json lists the same
   (the smoke check holds them equal).  [virtual_ms] is milliseconds of
   simulated time. *)
let end_to_end =
  [
    ("goodput_per_s", "ops/s", "higher", Exact);
    ("latency_p50_ms", "virtual_ms", "lower", Exact);
    ("latency_p99_ms", "virtual_ms", "lower", Exact);
    ("latency_p999_ms", "virtual_ms", "lower", Exact);
    ("slo_rate_per_s", "ops/s", "higher", Exact);
    ("unavailable_ms", "virtual_ms", "lower", Exact);
    ("host_us_per_op", "us", "lower", Noisy);
    ("alloc_words_per_op", "words", "lower", Exact);
    ("peak_heap_mb", "MB", "lower", Noisy);
    ("setup_s", "s", "lower", Noisy);
  ]

let per_layer =
  [
    ("sim.events_per_op", "events/op", "lower");
    ("sim.step_ns", "ns", "lower");
    ("sim.queue_depth_p99", "events", "lower");
    ("net.deliver_ns", "ns", "lower");
    ("net.cpu_busy_frac_max", "ratio", "lower");
    ("net.cpu_queue_p99", "jobs", "lower");
    ("gcs.safe_delivery_ms_p50", "virtual_ms", "lower");
    ("gcs.safe_delivery_ms_p99", "virtual_ms", "lower");
    ("gcs.msgs_per_delivery", "msgs", "lower");
    ("gcs.bytes_per_delivery", "bytes", "lower");
    ("gcs.host_us_per_op", "us", "lower");
    ("gcs.view_installs", "count", "lower");
    ("core.mean_batch", "actions", "higher");
    ("core.exchanges", "count", "lower");
    ("core.actions_resent_per_op", "actions/op", "lower");
    ("core.exchange_us", "us", "lower");
    ("core.shed_frac", "ratio", "lower");
    ("core.dedup_hits", "count", "lower");
    ("core.residual_us_per_op", "us", "lower");
    ("storage.flushes_per_op", "flushes/op", "lower");
    ("storage.append_us_per_record", "us", "lower");
    ("storage.recovery_ms", "virtual_ms", "lower");
    ("db.execute_us_per_op", "us", "lower");
    ("db.applies_per_op", "applies/op", "lower");
    ("db.apply_spread_ms", "virtual_ms", "lower");
    ("db.transfer_chunks", "count", "lower");
    ("client.retries_per_op", "retries/op", "lower");
    ("client.busy_per_op", "busy/op", "lower");
    ("client.sessions_peak", "sessions", "lower");
    ("client.failovers", "count", "lower");
    ("client.timeouts", "count", "lower");
    ("client.outstanding_p99", "requests", "lower");
    ("trace.overhead_us_per_op", "us", "lower");
  ]

let pp ppf m =
  if measured m then
    Format.fprintf ppf "%-32s %22s %-11s %s@." m.name (Json.number m.value) m.unit_
      (match (m.read_at, m.count) with
      | Some p, Some n -> Printf.sprintf "(p%.4g, n=%d)" p n
      | _, Some n -> Printf.sprintf "(n=%d)" n
      | _, None -> "")
  else Format.fprintf ppf "%-32s %22s %-11s (not measured: n=0)@." m.name "-" m.unit_

(* {name: {value, unit}} — with [~counts], also each sample count and
   the percentile read. *)
let to_json ~counts l =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             (("value", Json.Num m.value)
             :: ("unit", Json.Str m.unit_)
             :: (if not counts then []
                 else
                   (match m.count with
                   | Some n -> [ ("count", Json.Num (float_of_int n)) ]
                   | None -> [])
                   @
                   match m.read_at with
                   | Some p -> [ ("percentile", Json.Num p) ]
                   | None -> [])) ))
       l)
