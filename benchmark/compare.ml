(* Compare benchmark results of a parent commit and a change.

     compare.exe PARENT.jsonl CHANGE.jsonl

   Run from the repository root: the bounds come from BENCHMARK.json.
   Each file holds the lines [benchmark.exe run --json FILE] appends, one
   per run.  Runs of the same workload and seed on both sides form a
   pair; run at least ten pairs per workload, alternating which side
   runs first.  For each workload and metric one row gives each side's
   quartiles, the share of pairs the change wins (ties count for
   neither) and a verdict.

   An exact metric (virtual, or words allocated) repeats exactly for a
   seed, so the parent's own spread for a seed is zero and each pair
   measures the change itself:

   - better: the change wins at least 9 pairs in 10, and the median of
     the pairs' relative differences favours it;
   - worse: that median is worse than the metric's bound;
   - within bound: neither.

   A noisy metric (host time and memory) varies from run to run, so the
   sides are compared as samples:

   - unresolved: the parent's own quartile spread is wider than the
     bound, and not every change run beats every parent run;
   - better: the change wins at least 9 pairs in 10 and the medians
     differ by more than the parent's own quartile spread;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - within bound: none of these.

   Metrics without a bound (the per-layer ones) get rows without a
   verdict, and a metric a run had nothing to measure with (count 0) is
   left out.  The exit status is 1 when any verdict is "worse" or any run
   failed its checks. *)

type run = {
  workload : string;
  seed : int;
  correct : bool;
  values : (string * float) list;
}

let runs_of path =
  String.split_on_char '\n' (Json.read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse line in
         let str k = Option.value (Option.bind (Json.member k j) Json.to_str) ~default:"" in
         let num k = Option.bind (Json.member k j) Json.to_num in
         {
           workload = str "workload";
           seed = int_of_float (Option.value (num "seed") ~default:0.);
           correct = Json.member "correct" j = Some (Json.Bool true);
           values =
             (match Json.member "metrics" j with
             | Some (Json.Obj ms) ->
               List.filter_map
                 (fun (name, m) ->
                   if Option.bind (Json.member "count" m) Json.to_num = Some 0. then None
                   else Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) Json.to_num))
                 ms
             | _ -> []);
         })

type spec = { name : string; better_higher : bool; bound : float option; exact : bool }

let specs path =
  let j = Json.parse (Json.read_file path) in
  let list key =
    List.filter_map
      (fun m ->
        match Option.bind (Json.member "name" m) Json.to_str with
        | None -> None
        | Some name ->
          Some
            {
              name;
              better_higher = Json.member "better" m = Some (Json.Str "higher");
              bound = Option.bind (Json.member "bound" m) Json.to_num;
              exact =
                List.exists
                  (fun (n, _, _, kind) -> n = name && kind = Metric.Exact)
                  Metric.end_to_end;
            })
      (Json.to_list (Option.value (Json.member key j) ~default:Json.Null))
  in
  list "end_to_end" @ list "per_layer"

let verdict spec ~parent ~change ~pairs =
  let pq1, pm, pq3 = Sample.quartiles parent and _, cm, _ = Sample.quartiles change in
  let better a b = if spec.better_higher then a > b else a < b in
  (* How much worse [c] is than [p], as a share of [p]. *)
  let worse_by p c = if p = 0. then 0. else (if spec.better_higher then p -. c else c -. p) /. Float.abs p in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let win_frac = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let spread = pq3 -. pq1 in
  let verdict =
    match spec.bound with
    | None -> "-"
    | Some _ when spec.exact && pairs = [] -> "no pairs"
    | Some bound when spec.exact ->
      let paired = Sample.median (List.map (fun (p, c) -> worse_by p c) pairs) in
      if win_frac >= 0.9 && paired < 0. then "better"
      else if paired > bound then "worse"
      else "within bound"
    | Some bound ->
      if pm <> 0. && spread /. Float.abs pm > bound then
        if List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change then
          "better"
        else "unresolved"
      else if win_frac >= 0.9 && better cm pm && Float.abs (cm -. pm) > spread then "better"
      else if worse_by pm cm > bound then "worse"
      else "within bound"
  in
  (win_frac, verdict)

let () =
  let parent_file, change_file =
    match List.tl (Array.to_list Sys.argv) with
    | [ p; c ] -> (p, c)
    | _ ->
      prerr_endline "usage: compare.exe PARENT.jsonl CHANGE.jsonl";
      exit 2
  in
  let parent = runs_of parent_file and change = runs_of change_file in
  let specs = specs "BENCHMARK.json" in
  let bad = ref false in
  List.iter
    (fun r ->
      if not r.correct then begin
        bad := true;
        Printf.printf "FAILED CHECKS: %s seed %d (%s)\n" r.workload r.seed
          (if List.memq r parent then "parent" else "change")
      end)
    (parent @ change);
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  Printf.printf "%-12s %-30s %38s %38s %6s  %s\n" "workload" "metric" "parent q1 / median / q3"
    "change q1 / median / q3" "wins" "verdict";
  List.iter
    (fun w ->
      let side l = List.filter (fun r -> r.workload = w) l in
      let ps = side parent and cs = side change in
      let pairs_of name =
        List.filter_map
          (fun p ->
            match List.find_opt (fun c -> c.seed = p.seed) cs with
            | Some c -> (
              match (List.assoc_opt name p.values, List.assoc_opt name c.values) with
              | Some a, Some b -> Some (a, b)
              | _ -> None)
            | None -> None)
          ps
      in
      List.iter
        (fun spec ->
          let values l = List.filter_map (fun r -> List.assoc_opt spec.name r.values) l in
          let pv = values ps and cv = values cs in
          if pv <> [] && cv <> [] then begin
            let pairs = pairs_of spec.name in
            let win_frac, v = verdict spec ~parent:pv ~change:cv ~pairs in
            let v =
              if spec.bound <> None && List.length pairs < 10 then
                Printf.sprintf "%s (only %d pairs)" v (List.length pairs)
              else v
            in
            if String.starts_with ~prefix:"worse" v then bad := true;
            let q l =
              let a, b, c = Sample.quartiles l in
              Printf.sprintf "%12.5g %12.5g %12.5g" a b c
            in
            Printf.printf "%-12s %-30s %38s %38s %5.0f%%  %s\n" w spec.name (q pv) (q cv)
              (100. *. win_frac) v
          end)
        specs)
    workloads;
  exit (if !bad then 1 else 0)
