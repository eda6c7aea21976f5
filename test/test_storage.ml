(* Tests of the simulated stable storage: forced-write latency, group
   commit, delayed-mode durability loss, crash/recovery of the
   write-ahead log and the stable cell. *)

open Repro_sim
open Repro_storage

(* Timing assertions need a metronome disk: no flush jitter. *)
let forced_nojitter = { Disk.default_forced with sync_jitter = 0. }
let delayed_nojitter = { Disk.default_delayed with sync_jitter = 0. }

let make ?(config = forced_nojitter) () =
  let engine = Engine.create () in
  let disk = Disk.create ~engine ~config () in
  (engine, disk)

(* These logs' frames are plain record arrays. *)
let records frames = List.concat_map Array.to_list frames

(* The verified prefix, as the old verdict-less recover returned it. *)
let entries log = records (Wlog.recover log).Wlog.rv_trusted
let verdict log = (Wlog.recover log).Wlog.rv_verdict

let verdict_t : Wlog.verdict Alcotest.testable =
  Alcotest.testable Wlog.pp_verdict (fun a b -> a = b)

let test_forced_write_latency () =
  let engine, disk = make () in
  let done_at = ref Time.zero in
  Disk.force disk (fun () -> done_at := Engine.now engine);
  Engine.run engine;
  (* 10 ms platter write + 10 us group-commit gather window. *)
  Alcotest.(check int) "10 ms forced write" 10_010 (Time.to_us !done_at)

let test_group_commit_batches () =
  let engine, disk = make () in
  let completions = ref [] in
  (* First force starts a flush; the next ten arrive while it is in
     flight and must share the *second* flush. *)
  Disk.force disk (fun () -> completions := ("first", Engine.now engine) :: !completions);
  Engine.schedule engine ~delay:(Time.of_ms 1.) (fun () ->
      for i = 1 to 10 do
        Disk.force disk (fun () ->
            completions := (Printf.sprintf "b%d" i, Engine.now engine) :: !completions)
      done);
  Engine.run engine;
  Alcotest.(check int) "two flushes total" 2 (Disk.flushes disk);
  let batch_times =
    List.filter_map
      (fun (tag, t) -> if tag <> "first" then Some (Time.to_us t) else None)
      !completions
  in
  Alcotest.(check int) "ten batched" 10 (List.length batch_times);
  List.iter
    (fun t -> Alcotest.(check int) "all at second flush" 20_020 t)
    batch_times

let test_delayed_ack_fast () =
  let engine, disk = make ~config:delayed_nojitter () in
  let done_at = ref Time.zero in
  Disk.force disk (fun () -> done_at := Engine.now engine);
  Engine.run ~until:(Time.of_ms 1.) engine;
  Alcotest.(check int) "50 us delayed ack" 50 (Time.to_us !done_at)

let test_flush_jitter_within_bounds () =
  let config = { Disk.default_forced with sync_jitter = 0.4 } in
  let engine = Engine.create ~seed:3 () in
  let disk = Disk.create ~engine ~config () in
  (* Sequential flushes: each completion-to-completion gap must stay in
     [8, 12] ms (±20% of 10 ms) plus the 10 µs gather window. *)
  let completions = ref [] in
  let rec loop n =
    if n > 0 then
      Disk.force disk (fun () ->
          completions := Time.to_us (Engine.now engine) :: !completions;
          loop (n - 1))
  in
  loop 30;
  Engine.run engine;
  let times = List.rev !completions in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun gap ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %d us within jitter bounds" gap)
        true
        (gap >= 8_000 && gap <= 12_100))
    (gaps times);
  (* And they are not all identical (jitter is real). *)
  Alcotest.(check bool) "gaps vary" true
    (List.sort_uniq Int.compare (gaps times) |> List.length > 5)

let test_wlog_append_recover () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.append log [| "b" |];
  let synced = ref false in
  Wlog.sync log (fun () -> synced := true);
  Engine.run engine;
  Alcotest.(check bool) "synced" true !synced;
  Alcotest.(check (list string)) "recover order" [ "a"; "b" ] (entries log)

let test_wlog_crash_loses_unsynced () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "durable" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Wlog.append log [| "volatile" |];
  Wlog.crash log;
  Alcotest.(check (list string)) "only durable survives" [ "durable" ] (entries log)

let test_wlog_crash_during_flush () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  let acked = ref false in
  Wlog.append log [| "inflight" |];
  Wlog.sync log (fun () -> acked := true);
  (* Crash at 5 ms: the 10 ms flush never completes. *)
  Engine.schedule engine ~delay:(Time.of_ms 5.) (fun () -> Wlog.crash log);
  Engine.run engine;
  Alcotest.(check bool) "ack never fired" false !acked;
  Alcotest.(check (list string)) "entry lost" [] (entries log)

let test_wlog_delayed_mode_can_lose_acked () =
  let engine, disk = make ~config:delayed_nojitter () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  let acked = ref false in
  Wlog.append log [| "risky" |];
  Wlog.sync log (fun () -> acked := true);
  (* Crash after the ack but before the background flush (100 ms). *)
  Engine.schedule engine ~delay:(Time.of_ms 10.) (fun () -> Wlog.crash log);
  Engine.run ~until:(Time.of_ms 20.) engine;
  Alcotest.(check bool) "acked fast" true !acked;
  Alcotest.(check (list string)) "acked write lost on crash" [] (entries log)

let test_wlog_delayed_mode_survives_after_flush () =
  let engine, disk = make ~config:delayed_nojitter () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "eventually-safe" |];
  Wlog.sync log ignore;
  (* Let the background flush run (100 ms interval + 10 ms flush). *)
  Engine.schedule engine ~delay:(Time.of_ms 300.) (fun () -> Wlog.crash log);
  Engine.run ~until:(Time.of_ms 400.) engine;
  Alcotest.(check (list string))
    "entry survives after background flush" [ "eventually-safe" ]
    (entries log)

(* --- record framing and fault verdicts ---------------------------- *)

let faulty ?(torn = 0.) ?(corrupt = 0.) ?(read_error = 0.) ?(read_retries = 4) () =
  {
    forced_nojitter with
    Disk.faults =
      {
        Disk.no_faults with
        torn_tail_on_crash = torn;
        corrupt_on_crash = corrupt;
        read_error;
        read_retries;
      };
  }

let test_wlog_torn_tail_verdict () =
  let engine, disk = make ~config:(faulty ~torn:1.0 ()) () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Wlog.append log [| "b" |];
  (* "b" is in flight; with certain torn-tail injection it survives the
     crash as a present-but-unverifiable record. *)
  Wlog.crash log;
  let rv = Wlog.recover log in
  Alcotest.check verdict_t "torn tail at 1" (Wlog.Torn_tail 1) rv.Wlog.rv_verdict;
  Alcotest.(check (list string)) "trusted prefix" [ "a" ]
    (records rv.Wlog.rv_trusted);
  Alcotest.(check (list string)) "readable = trusted" [ "a" ]
    (records rv.Wlog.rv_readable);
  (* Truncating the damage restores a clean log. *)
  Wlog.truncate_damaged log ~from:1;
  Alcotest.check verdict_t "clean after truncate" Wlog.Clean (verdict log);
  Alcotest.(check (list string)) "prefix intact" [ "a" ] (entries log)

let test_wlog_corrupt_interior () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.append log [| "b" |];
  Wlog.append log [| "c" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Alcotest.(check bool) "injection in range" true (Wlog.corrupt log ~nth:1);
  let rv = Wlog.recover log in
  Alcotest.check verdict_t "interior damage at 1" (Wlog.Corrupt_interior 1)
    rv.Wlog.rv_verdict;
  Alcotest.(check (list string)) "trusted stops at damage" [ "a" ]
    (records rv.Wlog.rv_trusted);
  Alcotest.(check (list string))
    "readable skips the bad record" [ "a"; "c" ] (records rv.Wlog.rv_readable);
  Alcotest.(check bool) "out of range" false (Wlog.corrupt log ~nth:7)

let test_wlog_crash_corruption () =
  let engine, disk = make ~config:(faulty ~corrupt:1.0 ()) () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.append log [| "b" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Wlog.crash log;
  (* Every durable record was corrupted at crash time: damage starts at
     the head, so nothing is trustworthy. *)
  let rv = Wlog.recover log in
  Alcotest.check verdict_t "head corruption" (Wlog.Corrupt_interior 0)
    rv.Wlog.rv_verdict;
  Alcotest.(check (list string)) "nothing trusted" [] (records rv.Wlog.rv_trusted);
  Alcotest.(check (list string)) "nothing readable" []
    (records rv.Wlog.rv_readable)

let test_wlog_read_retry_exhaustion () =
  let engine, disk =
    make ~config:(faulty ~read_error:1.0 ~read_retries:3 ()) ()
  in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.append log [| "b" |];
  Wlog.sync log ignore;
  Engine.run engine;
  let rv = Wlog.recover log in
  (* Each record burns the full retry budget: 2 retries with 500 us then
     1000 us of backoff, then it is declared unreadable. *)
  Alcotest.(check int) "two retries per record" 4 rv.Wlog.rv_read_retries;
  Alcotest.(check int) "exponential backoff total" 3_000
    (Time.to_us rv.Wlog.rv_backoff);
  Alcotest.check verdict_t "unreadable log" (Wlog.Corrupt_interior 0)
    rv.Wlog.rv_verdict

let test_wlog_batch_is_one_frame () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a"; "b"; "c" |];
  let synced = ref false in
  Wlog.sync log (fun () -> synced := true);
  Engine.run engine;
  Alcotest.(check bool) "synced" true !synced;
  Alcotest.(check int) "one frame" 1 (Wlog.frame_count log);
  Alcotest.(check int) "three records" 3 (Wlog.length log);
  (* A later unsynced batch is lost by a crash as a unit: no partial
     batch can survive, because the whole batch is one frame. *)
  Wlog.append log [| "d"; "e" |];
  Wlog.crash log;
  Alcotest.check verdict_t "clean" Wlog.Clean (verdict log);
  Alcotest.(check (list string))
    "durable batch survives whole, in-flight batch dies whole"
    [ "a"; "b"; "c" ] (entries log)

let test_wlog_torn_batch_frame_granular () =
  let engine, disk = make ~config:(faulty ~torn:1.0 ()) () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Wlog.append log [| "b"; "c"; "d" |];
  (* The batch is in flight; certain torn-tail injection leaves it
     behind damaged — as a unit, because the checksum covers the whole
     frame.  The verdict position is a frame index. *)
  Wlog.crash log;
  let rv = Wlog.recover log in
  Alcotest.check verdict_t "torn at frame 1" (Wlog.Torn_tail 1) rv.Wlog.rv_verdict;
  Alcotest.(check (list string)) "trusted prefix" [ "a" ]
    (records rv.Wlog.rv_trusted);
  Alcotest.(check (list string)) "no partial batch readable" [ "a" ]
    (records rv.Wlog.rv_readable);
  Wlog.truncate_damaged log ~from:1;
  Alcotest.check verdict_t "clean after frame truncate" Wlog.Clean (verdict log);
  Alcotest.(check int) "one record left" 1 (Wlog.length log);
  Alcotest.(check int) "one frame left" 1 (Wlog.frame_count log)

(* [Wlog.compact]'s per-frame [keep] for a log of record arrays, from a
   per-record predicate asked once per record in append order (so it
   may carry state).  A frame that keeps every record comes back as is;
   the verdicts sit in one reused buffer, so nothing is allocated per
   record. *)
let keep_records keep =
  let marks = ref Bytes.empty in
  fun frame ->
    let n = Array.length frame in
    if Bytes.length !marks < n then marks := Bytes.create (max n 64);
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let k = keep frame.(i) in
      Bytes.set !marks i (if k then '1' else '0');
      if k then incr kept
    done;
    if !kept = n then Some frame
    else if !kept = 0 then None
    else begin
      let out = Array.make !kept frame.(0) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get !marks i = '1' then begin
          out.(!j) <- frame.(i);
          incr j
        end
      done;
      Some out
    end

let test_wlog_seq_survives_compaction () =
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  Wlog.append log [| "a" |];
  Wlog.append log [| "b" |];
  Wlog.sync log ignore;
  Engine.run engine;
  Wlog.compact log ~keep:(keep_records (fun e -> e = "b"));
  Wlog.append log [| "c" |];
  Wlog.sync log ignore;
  Engine.run engine;
  (* Sequence numbers never restart, so the chain across a compaction
     boundary still verifies as strictly increasing. *)
  Alcotest.check verdict_t "clean across compaction" Wlog.Clean (verdict log);
  Alcotest.(check (list string)) "compacted prefix + new tail" [ "b"; "c" ]
    (entries log)

(* --- list-free compaction ------------------------------------------ *)

(* A log shaped like the replica's: checkpoints carry the cut they
   cover, and compaction keeps the newest checkpoint, everything after
   it, and the records before it above its cut. *)
type entry = Ck of { id : int; cut : int } | R of int

let newest_ck = function Ck { id; cut } -> Some (id, cut) | R _ -> None

(* [newest_ck] over one frame, newest record first. *)
let newest_ck_in frame =
  let rec go i =
    if i < 0 then None
    else match newest_ck frame.(i) with Some _ as c -> c | None -> go (i - 1)
  in
  go (Array.length frame - 1)

let keep_from (id, cut) =
  let after = ref false in
  fun e ->
    !after
    ||
    match e with
    | Ck c when c.id = id ->
      after := true;
      true
    | Ck _ -> false
    | R i -> i > cut

(* The path compaction takes now: the clean check, the newest-first
   checkpoint search and the frame-reusing filter. *)
let compact_list_free log =
  if Wlog.clean log then
    match Wlog.find_newest log newest_ck_in with
    | Some c -> Wlog.compact log ~keep:(keep_records (keep_from c))
    | None -> ()

(* The path it replaces, as a reference: recover the whole log into
   lists, search them for the last checkpoint, filter every frame. *)
let compact_via_recover frames log =
  let rv = Wlog.recover log in
  let entries =
    match rv.Wlog.rv_verdict with
    | Wlog.Clean -> records rv.Wlog.rv_trusted
    | Wlog.Torn_tail _ | Wlog.Corrupt_interior _ -> []
  in
  match
    List.fold_left
      (fun acc e -> match newest_ck e with Some c -> Some c | None -> acc)
      None entries
  with
  | None -> frames
  | Some c ->
    let keep = keep_from c in
    List.filter_map
      (fun f -> match List.filter keep f with [] -> None | f -> Some f)
      frames

let build ?(config = forced_nojitter) frames =
  let engine, disk = make ~config () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  List.iter (fun f -> Wlog.append log (Array.of_list f)) frames;
  Wlog.sync log ignore;
  Engine.run engine;
  (disk, log)

let gen_frames =
  let open QCheck.Gen in
  let entry =
    frequency
      [
        (1, map (fun cut -> `Ck cut) (int_bound 40));
        (6, map (fun i -> `R i) (int_bound 40));
      ]
  in
  map
    (fun frames ->
      let id = ref 0 in
      List.map
        (List.map (function
          | `Ck cut ->
            incr id;
            Ck { id = !id; cut }
          | `R i -> R i))
        frames)
    (list_size (int_range 0 30) (list_size (int_range 1 6) entry))

let prop_compact_matches_recover_path =
  QCheck.Test.make ~name:"compaction keeps what the recover path kept"
    ~count:300 (QCheck.make gen_frames) (fun frames ->
      let _, log = build frames in
      compact_list_free log;
      let expected = compact_via_recover frames (snd (build frames)) in
      entries log = List.concat expected
      && Wlog.frame_count log = List.length expected
      && Wlog.length log = List.length (List.concat expected)
      && verdict log = Wlog.Clean)

(* The model is the earlier recovery decision, which listed the damaged
   positions and then checked every frame against that list. *)
let judge_model (frames : int Wlog.read list) =
  let damaged = ref [] in
  let prev_seq = ref min_int in
  List.iteri
    (fun i (f : int Wlog.read) ->
      if (not f.r_ok) || f.r_seq <= !prev_seq then damaged := i :: !damaged
      else prev_seq := f.r_seq)
    frames;
  let readable =
    List.filter_map (fun (f : int Wlog.read) -> if f.r_ok then Some f.r_body else None) frames
  in
  let verdict =
    match List.rev !damaged with
    | [] -> Wlog.Clean
    | first :: _ ->
      let all_after_damaged =
        List.for_all
          (fun (i, _) -> i < first || List.mem i !damaged)
          (List.mapi (fun i r -> (i, r)) frames)
      in
      let first_is_torn =
        match List.nth_opt frames first with Some f -> f.r_torn | None -> false
      in
      if first_is_torn && all_after_damaged then Wlog.Torn_tail first
      else Wlog.Corrupt_interior first
  in
  let trusted =
    match verdict with
    | Wlog.Clean -> List.map (fun (f : int Wlog.read) -> f.r_body) frames
    | Wlog.Torn_tail first | Wlog.Corrupt_interior first ->
      List.filteri (fun i _ -> i < first) frames
      |> List.map (fun (f : int Wlog.read) -> f.r_body)
  in
  (verdict, trusted, readable)

(* Damaged logs as recovery reads them: mostly advancing sequence
   numbers with some repeats and regressions, some frames failing their
   checksum or read, some torn. *)
let gen_reads =
  let open QCheck.Gen in
  let frame =
    quad
      (frequency [ (6, int_range 1 3); (1, int_range (-2) 0) ])
      (frequency [ (4, return true); (1, return false) ])
      (frequency [ (4, return false); (1, return true) ])
      nat
  in
  map
    (fun frames ->
      let seq = ref 0 in
      List.map
        (fun (step, r_ok, r_torn, r_body) ->
          seq := !seq + step;
          { Wlog.r_body; r_seq = !seq; r_ok; r_torn })
        frames)
    (list_size (int_range 0 20) frame)

let prop_judge_matches_model =
  QCheck.Test.make ~name:"recovery decides like the list model" ~count:1000
    (QCheck.make gen_reads) (fun reads -> Wlog.judge reads = judge_model reads)

let test_compact_leaves_damaged_log () =
  let frames =
    [ [ R 1; R 2 ]; [ Ck { id = 1; cut = 2 } ]; [ R 3 ]; [ R 4; R 5 ] ]
  in
  (* An interior frame failing its checksum, then a torn in-flight
     frame: compaction must not touch either log. *)
  let _, corrupt = build frames in
  ignore (Wlog.corrupt corrupt ~nth:3);
  let engine, disk = make ~config:(faulty ~torn:1.0 ()) () in
  let torn = Wlog.create ~engine ~disk ~records:Array.length () in
  List.iter (fun f -> Wlog.append torn (Array.of_list f)) frames;
  Wlog.sync torn ignore;
  Engine.run engine;
  Wlog.append torn [| R 6 |];
  Wlog.crash torn;
  List.iter
    (fun (name, log) ->
      let before = Wlog.recover log in
      let records = Wlog.length log and count = Wlog.frame_count log in
      Alcotest.(check bool) (name ^ " is not clean") false (Wlog.clean log);
      compact_list_free log;
      let after = Wlog.recover log in
      Alcotest.(check int) (name ^ " records") records (Wlog.length log);
      Alcotest.(check int) (name ^ " frames") count (Wlog.frame_count log);
      Alcotest.check verdict_t (name ^ " verdict") before.Wlog.rv_verdict
        after.Wlog.rv_verdict;
      Alcotest.(check bool) (name ^ " readable records") true
        (before.Wlog.rv_readable = after.Wlog.rv_readable))
    [ ("corrupt", corrupt); ("torn", torn) ]

(* With transient read errors on, the clean check consumes the disk's
   fault stream exactly as a recovery does: after either, the next
   draws agree, and the two agree on whether the log is clean.  A frame
   already failing its checksum makes no draw on either path. *)
let test_clean_draws_like_recover () =
  let frames = List.init 12 (fun i -> [ R (2 * i); R ((2 * i) + 1) ]) in
  let next disk = List.init 64 (fun _ -> Disk.draw_read_error disk) in
  let outcomes = ref [] in
  List.iter
    (fun ((read_error, read_retries), damaged) ->
      let config = faulty ~read_error ~read_retries () in
      let disk_a, a = build ~config frames in
      let disk_b, b = build ~config frames in
      if damaged then begin
        ignore (Wlog.corrupt a ~nth:5);
        ignore (Wlog.corrupt b ~nth:5)
      end;
      let clean = Wlog.clean a in
      let recovered_clean = (Wlog.recover b).Wlog.rv_verdict = Wlog.Clean in
      Alcotest.(check bool) "clean iff recover says Clean" recovered_clean clean;
      Alcotest.(check (list bool))
        "same draws follow" (next disk_b) (next disk_a);
      outcomes := clean :: !outcomes)
    (List.concat_map
       (fun faults -> [ (faults, false); (faults, true) ])
       [ (0.05, 4); (0.3, 4); (0.6, 2); (0.9, 3) ]);
  Alcotest.(check bool) "both outcomes exercised" true
    (List.mem true !outcomes && List.mem false !outcomes)

(* Compaction allocates per frame, not per record: the same frames
   holding 32 records each cost no more than holding one each. *)
let test_compact_allocates_per_frame () =
  let words per_frame =
    let frames =
      List.init 200 (fun f ->
          if f = 100 then [ Ck { id = 1; cut = 99 } ]
          else List.init per_frame (fun _ -> R f))
    in
    let _, log = build frames in
    let before = Gc.minor_words () in
    compact_list_free log;
    let allocated = Gc.minor_words () -. before in
    Alcotest.(check int) "kept from the checkpoint on" (1 + (99 * per_frame))
      (Wlog.length log);
    allocated
  in
  let one = words 1 and many = words 32 in
  Alcotest.(check bool)
    (Printf.sprintf "O(frames): %.0f words for 200x1, %.0f for 200x32" one many)
    true
    (many <= one && many < 20. *. 200.)

let test_shared_disk_group_commit () =
  (* Two logs sharing one disk must group-commit together. *)
  let engine, disk = make () in
  let log = Wlog.create ~engine ~disk ~records:Array.length () in
  let other = Wlog.create ~engine ~disk ~records:Array.length () in
  let completed = ref 0 in
  Wlog.append log [| 1 |];
  Wlog.sync log (fun () -> incr completed);
  Wlog.append other [| 2 |];
  Wlog.sync other (fun () -> incr completed);
  Engine.run engine;
  Alcotest.(check int) "both complete" 2 !completed;
  Alcotest.(check int) "single flush" 1 (Disk.flushes disk)

let () =
  Alcotest.run "storage"
    [
      ( "disk",
        [
          Alcotest.test_case "forced write latency" `Quick test_forced_write_latency;
          Alcotest.test_case "group commit" `Quick test_group_commit_batches;
          Alcotest.test_case "delayed ack" `Quick test_delayed_ack_fast;
          Alcotest.test_case "flush jitter bounds" `Quick
            test_flush_jitter_within_bounds;
          Alcotest.test_case "shared disk group commit" `Quick
            test_shared_disk_group_commit;
        ] );
      ( "wlog",
        [
          Alcotest.test_case "append and recover" `Quick test_wlog_append_recover;
          Alcotest.test_case "crash loses unsynced" `Quick test_wlog_crash_loses_unsynced;
          Alcotest.test_case "crash during flush" `Quick test_wlog_crash_during_flush;
          Alcotest.test_case "delayed mode loses acked" `Quick
            test_wlog_delayed_mode_can_lose_acked;
          Alcotest.test_case "delayed mode survives after flush" `Quick
            test_wlog_delayed_mode_survives_after_flush;
          Alcotest.test_case "torn tail verdict" `Quick test_wlog_torn_tail_verdict;
          Alcotest.test_case "corrupt interior" `Quick test_wlog_corrupt_interior;
          Alcotest.test_case "crash corruption" `Quick test_wlog_crash_corruption;
          Alcotest.test_case "read retry exhaustion" `Quick
            test_wlog_read_retry_exhaustion;
          Alcotest.test_case "batch is one frame" `Quick
            test_wlog_batch_is_one_frame;
          Alcotest.test_case "torn batch is frame-granular" `Quick
            test_wlog_torn_batch_frame_granular;
          Alcotest.test_case "seq survives compaction" `Quick
            test_wlog_seq_survives_compaction;
          QCheck_alcotest.to_alcotest prop_judge_matches_model;
        ] );
      ( "compaction",
        [
          QCheck_alcotest.to_alcotest prop_compact_matches_recover_path;
          Alcotest.test_case "damaged log untouched" `Quick
            test_compact_leaves_damaged_log;
          Alcotest.test_case "clean check draws like recover" `Quick
            test_clean_draws_like_recover;
          Alcotest.test_case "allocates per frame" `Quick
            test_compact_allocates_per_frame;
        ] );
    ]
