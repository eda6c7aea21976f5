(* runtest guard over the committed bench reports: re-parse each
   BENCH_*.json named on the command line and re-assert its claim from
   the recorded numbers, so no perf or robustness claim in the repo can
   silently drift from its artifact.  The report's base name picks the
   check:

   - BENCH_6.json (`dune exec bench/main.exe -- bench6`): the Figure
     5(b) delayed-writes knee is at least 10x the seed;
   - BENCH_9.json (`dune exec bench/main.exe -- bench9`): with
     admission control, goodput at twice the saturation rate stays
     within 20% of the peak, while the unprotected baseline collapses
     with a CPU backlog;
   - BENCH_10.json (`dune exec bench/main.exe -- bench10`): at 200
     members the counting-table knowledge exchange beats the naive list
     intersection by at least 2x, and the int-keyed heap beats the
     closure-comparator heap.

   The parser is a deliberately small scanner — the reports are flat,
   machine-written JSON; there is no JSON library in the tree and this
   guard is not a reason to add one. *)

(* The report under check: prefixes every failure message. *)
let report = ref "BENCH"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (!report ^ " guard: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let is_num_char c =
  (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'

(* Position just after ["key"] followed by a colon, searching from
   [from]. *)
let after_key_opt s ~from key =
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle and len = String.length s in
  let rec find i =
    if i + nlen > len then None
    else if String.sub s i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find from with
  | None -> None
  | Some i ->
    let rec colon i =
      if i >= len then fail "no colon after key %S" key
      else
        match s.[i] with
        | ':' -> Some (i + 1)
        | ' ' | '\n' | '\t' -> colon (i + 1)
        | c -> fail "unexpected %C after key %S" c key
    in
    colon i

let after_key s ~from key =
  match after_key_opt s ~from key with
  | Some i -> i
  | None -> fail "missing key %S" key

let skip_ws s i =
  let len = String.length s in
  let rec go i =
    if i < len && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t') then go (i + 1)
    else i
  in
  go i

let number_at s i =
  let i = skip_ws s i in
  let len = String.length s in
  let j = ref i in
  while !j < len && is_num_char s.[!j] do incr j done;
  if !j = i then fail "expected a number at offset %d" i;
  float_of_string (String.sub s i (!j - i))

let float_field s ~from key = number_at s (after_key s ~from key)

let bool_field s ~from key =
  let i = skip_ws s (after_key s ~from key) in
  if String.length s - i >= 4 && String.sub s i 4 = "true" then true
  else if String.length s - i >= 5 && String.sub s i 5 = "false" then false
  else fail "expected a boolean for key %S" key

(* Collect every value of [key] inside the array that starts right
   after [from] and ends at its closing ']' (points are flat objects,
   so bracket counting is not needed: stop at the first ']' at or
   before which no further key occurs). *)
let series s ~from ~upto key =
  let rec go from acc =
    match after_key_opt s ~from key with
    | Some i when i < upto -> go i (number_at s i :: acc)
    | _ -> List.rev acc
  in
  go from []

let array_end s i =
  let len = String.length s in
  let rec go i =
    if i >= len then fail "unterminated points array"
    else if s.[i] = ']' then i
    else go (i + 1)
  in
  go i

(* The numbers of the array starting at the next '[' after [i]. *)
let float_array s i =
  let len = String.length s in
  let rec open_bracket i =
    if i >= len then fail "expected an array"
    else if s.[i] = '[' then i + 1
    else open_bracket (i + 1)
  in
  let i = ref (open_bracket i) in
  let out = ref [] in
  let finished = ref false in
  while not !finished do
    let j = skip_ws s !i in
    if j >= len then fail "unterminated array"
    else if s.[j] = ']' then begin
      i := j + 1;
      finished := true
    end
    else if s.[j] = ',' then i := j + 1
    else begin
      out := number_at s j :: !out;
      let k = ref j in
      while !k < len && (is_num_char s.[!k] || s.[!k] = ' ') do incr k done;
      i := !k
    end
  done;
  List.rev !out

let bench6 s =
  (* Curve shape: the after-curves must cover the same client ladder as
     the seed curves. *)
  let fig = after_key s ~from:0 "figure_5b" in
  let ladder = float_array s (after_key s ~from:fig "clients") in
  let seed_obj = after_key s ~from:fig "seed" in
  let seed_delayed = float_array s (after_key s ~from:seed_obj "delayed_per_s") in
  let after_obj = after_key s ~from:seed_obj "after" in
  let after_delayed =
    float_array s (after_key s ~from:after_obj "delayed_per_s")
  in
  let after_forced = float_array s (after_key s ~from:after_obj "forced_per_s") in
  let n = List.length ladder in
  if n < 4 then fail "client ladder has only %d points" n;
  if List.length seed_delayed <> n then fail "seed delayed curve length mismatch";
  if List.length after_delayed <> n then
    fail "after delayed curve length mismatch";
  if List.length after_forced <> n then fail "after forced curve length mismatch";
  if List.exists (fun v -> v <= 0.) (after_delayed @ after_forced) then
    fail "non-positive throughput in an after-curve";
  (* The knee: recompute the speedup from the recorded numbers rather
     than trusting the recorded "speedup"/"pass" fields. *)
  let knee = after_key s ~from:0 "knee" in
  let seed_at_14 = float_field s ~from:knee "seed_delayed_per_s" in
  let after_at_14 = float_field s ~from:knee "after_delayed_per_s" in
  let target = float_field s ~from:knee "target_speedup" in
  let pass = bool_field s ~from:knee "pass" in
  let last l = List.nth l (List.length l - 1) in
  if Float.abs (seed_at_14 -. 2844.) > 0.5 then
    fail "seed baseline drifted from the recorded 2844/s: %.1f" seed_at_14;
  if Float.abs (after_at_14 -. last after_delayed) > 0.5 then
    fail "knee after_delayed_per_s (%.1f) disagrees with the curve (%.1f)"
      after_at_14 (last after_delayed);
  if target < 10. then fail "target_speedup weakened below 10: %.2f" target;
  if after_at_14 < target *. seed_at_14 then
    fail "knee miss: %.1f/s < %.1fx seed %.1f/s" after_at_14 target seed_at_14;
  if not pass then fail "report records pass=false";
  Printf.printf
    "BENCH_6 guard: OK (knee %.1f/s >= %.0fx seed %.0f/s; %d-point curves)\n"
    after_at_14 target seed_at_14 n

let bench9 s =
  let sat = float_field s ~from:0 "saturation_per_s" in
  if sat <= 0. then fail "non-positive saturation rate %.1f" sat;
  let with_adm = after_key s ~from:0 "with_admission" in
  let with_end = array_end s with_adm in
  let without_adm = after_key s ~from:0 "without_admission" in
  let without_end = array_end s without_adm in
  let point_series from upto =
    ( series s ~from ~upto "offered_x",
      series s ~from ~upto "goodput_per_s",
      series s ~from ~upto "max_cpu_queue" )
  in
  let adm_x, adm_g, adm_q = point_series with_adm with_end in
  let no_x, no_g, no_q = point_series without_adm without_end in
  let n = List.length adm_x in
  if n < 4 then fail "with-admission sweep has only %d points" n;
  if List.length no_x <> n then fail "sweep lengths disagree";
  if List.length adm_g <> n || List.length no_g <> n then
    fail "goodput series length mismatch";
  if List.length adm_q <> n || List.length no_q <> n then
    fail "cpu-queue series length mismatch";
  let at xs ys x =
    let rec go xs ys =
      match (xs, ys) with
      | x' :: _, y :: _ when Float.abs (x' -. x) < 1e-9 -> y
      | _ :: xs, _ :: ys -> go xs ys
      | _ -> fail "sweep is missing the %.1fx point" x
    in
    go xs ys
  in
  (* Recompute the plateau from the recorded curves rather than
     trusting the recorded guard fields. *)
  let peak_adm = List.fold_left Float.max 0. adm_g in
  let adm_2x = at adm_x adm_g 2.0 in
  let no_2x = at no_x no_g 2.0 in
  if adm_2x < 0.8 *. peak_adm then
    fail "plateau miss: %.1f/s at 2x < 80%% of the %.1f/s peak" adm_2x peak_adm;
  (* The baseline must actually collapse — otherwise the plateau
     demonstrates nothing. *)
  if no_2x > 0.5 *. adm_2x then
    fail
      "no collapse to protect against: %.1f/s without admission at 2x vs \
       %.1f/s with"
      no_2x adm_2x;
  (* Attribution: the collapsed points must show the congestion (an
     unbounded CPU receive queue), and the shedding points must not. *)
  let no_q_2x = at no_x no_q 2.0 in
  let adm_q_2x = at adm_x adm_q 2.0 in
  if no_q_2x < 1_000. then
    fail "collapsed 2x point shows no CPU backlog (queue %.0f)" no_q_2x;
  if adm_q_2x > 1_000. then
    fail "admitted 2x point shows a CPU backlog (queue %.0f)" adm_q_2x;
  (* Cross-check the recorded guard block against the recomputation. *)
  let guard = after_key s ~from:0 "guard" in
  let rec_adm_2x = float_field s ~from:guard "goodput_at_2x_with_admission" in
  if Float.abs (rec_adm_2x -. adm_2x) > 0.5 then
    fail "guard block (%.1f) disagrees with the curve (%.1f)" rec_adm_2x adm_2x;
  if not (bool_field s ~from:guard "plateau_pass") then
    fail "report records plateau_pass=false";
  Printf.printf
    "BENCH_9 guard: OK (saturation %.0f/s; 2x goodput %.1f/s with admission \
     [>= 80%% of peak %.1f/s] vs %.1f/s without; collapse queue %.0f)\n"
    sat adm_2x peak_adm no_2x no_q_2x

let bench10 s =
  (* Every point of the membership ladder, keyed by its size. *)
  let point n =
    let rec find from =
      match after_key_opt s ~from "members" with
      | None -> fail "no point for %d members" n
      | Some i -> if int_of_float (number_at s i) = n then i else find i
    in
    let i = find 0 in
    ( float_field s ~from:i "intersect_naive_us",
      float_field s ~from:i "exchange_us",
      float_field s ~from:i "step_closure_heap_ns_per_op",
      float_field s ~from:i "step_keyed_heap_ns_per_op" )
  in
  List.iter
    (fun n ->
      let naive, exch, closure, keyed = point n in
      if naive <= 0. || exch <= 0. || closure <= 0. || keyed <= 0. then
        fail "non-positive measurement at %d members" n)
    [ 50; 100; 200 ];
  (* The claims, recomputed from the recorded numbers rather than
     trusting the recorded "speedup"/"pass" fields. *)
  let naive, exch, closure, keyed = point 200 in
  if exch *. 2. > naive then
    fail "exchange rework under 2x at 200 members: %.1f us vs naive %.1f us"
      exch naive;
  if keyed >= closure then
    fail "keyed heap not faster at 200 members: %.1f vs %.1f ns/op" keyed
      closure;
  let guard = after_key s ~from:0 "guard" in
  if not (bool_field s ~from:guard "exchange_pass") then
    fail "report records exchange_pass=false";
  if not (bool_field s ~from:guard "step_pass") then
    fail "report records step_pass=false";
  Printf.printf
    "BENCH_10 guard: OK (exchange %.1fx, step %.2fx at 200 members)\n"
    (naive /. exch) (closure /. keyed)

let checks = [ ("BENCH_6", bench6); ("BENCH_9", bench9); ("BENCH_10", bench10) ]

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: check_bench.exe BENCH_n.json...";
    exit 2
  end;
  List.iter
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      match List.assoc_opt name checks with
      | Some check ->
        report := name;
        check (read_file path)
      | None ->
        Printf.eprintf "check_bench: no guard for %s\n" path;
        exit 2)
    paths
