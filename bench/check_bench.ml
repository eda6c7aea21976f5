(* The bench guard: re-measure, then compare with the golden values.

     benchmark.exe smoke --benchmark-json BENCHMARK.json \
       | check_bench.exe bench/smoke.expected

   [benchmark.exe smoke] runs every workload at seed 97 for 0.5 virtual
   s and prints one line per workload.  Its virtual fields are
   deterministic, so each one must equal its golden value exactly; the
   guard fails on any difference and names the workload, the field and
   both values.  The allocation figure that closes each smoke line is
   not compared: exact word counts depend on the compiler build, so CI
   holds the knee under a ceiling instead.  A change that moves protocol
   timing moves these values and must regenerate the golden file on
   purpose (the command is in the bench-guard rule of the root dune
   file). *)

(* The virtual fields of a smoke line, in the order smoke prints them. *)
let fields =
  [ "goodput"; "slo_rate"; "unavailable_ms"; "attempted"; "failed";
    "samples"; "p50"; "p99"; "p999" ]

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* "workload v1 .. v9": a golden line, or a smoke line without its
   "smoke" head and "alloc w" tail. *)
let row = function
  | name :: values when List.length values = List.length fields ->
    Some (name, values)
  | _ -> None

let smoke_row line =
  match List.rev (words line) with
  | _ :: "alloc" :: rest -> (
    match List.rev rest with "smoke" :: r -> row r | _ -> None)
  | _ -> None

let () =
  match Sys.argv with
  | [| _; path |] ->
    let expected =
      List.filter_map
        (fun l -> row (words l))
        (In_channel.with_open_text path In_channel.input_lines)
    in
    let lines = In_channel.input_lines stdin in
    let got = List.filter_map smoke_row lines in
    let errors = ref [] in
    let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    if not (List.mem "smoke OK" lines) then begin
      List.iter prerr_endline lines;
      error "smoke did not finish OK"
    end;
    List.iter
      (fun (name, want) ->
        match List.assoc_opt name got with
        | None -> error "%s: not measured" name
        | Some have ->
          List.iter2
            (fun field (w, h) ->
              if w <> h then
                error "%s %s: expected %s, measured %s" name field w h)
            fields (List.combine want have))
      expected;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name expected) then
          error "%s: measured but not in %s" name path)
      got;
    (match List.rev !errors with
    | [] ->
      Printf.printf "bench guard: OK (%d workloads equal %s)\n"
        (List.length expected) path
    | l ->
      List.iter (fun e -> prerr_endline ("bench guard: " ^ e)) l;
      exit 1)
  | _ ->
    prerr_endline "usage: benchmark.exe smoke | check_bench.exe GOLDEN";
    exit 2
