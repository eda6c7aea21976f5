(* runtest guard over the committed BENCH_6.json (regenerated with
   `dune exec bench/main.exe -- bench6 > BENCH_6.json`): re-parse the
   report and re-assert the Figure 5(b) knee target, so the perf claim
   in the repo can never silently drift from the recorded numbers.  The
   parser is a deliberately small scanner — the report is flat,
   machine-written JSON; there is no JSON library in the tree and this
   guard is not a reason to add one. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("BENCH_6 guard: " ^ s);
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
let after_key s ~from key =
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle and len = String.length s in
  let rec find i =
    if i + nlen > len then fail "missing key %S" key
    else if String.sub s i nlen = needle then i + nlen
    else find (i + 1)
  in
  let rec colon i =
    if i >= len then fail "no colon after key %S" key
    else
      match s.[i] with
      | ':' -> i + 1
      | ' ' | '\n' | '\t' -> colon (i + 1)
      | c -> fail "unexpected %C after key %S" c key
  in
  colon (find from)

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

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_6.json" in
  let s = read_file path in
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
