open Repro_net
open Repro_gcs
open Repro_core
module Check = Repro_check

(* The bounded stateless explorer.

   Iterative-deepening-free DFS over {!Script.transition} interleavings
   from the stabilized initial state, with three complementary prunings:

   - {b dynamic partial-order reduction} (Flanagan & Godefroid 2005)
     over delivery transitions: two deliveries at different nodes are
     independent unless they appended to the same configuration log
     (their footprints, [result.appends], intersect).  When an executed
     delivery races with an earlier one, the earlier choice point gains
     a backtrack obligation; otherwise the alternative order is provably
     state-equivalent and never explored.  Fault and submission
     transitions are {e not} reduced: they are optional actions the DPOR
     theorem does not cover (nothing ever "races" with a crash that was
     simply never injected), so every choice point branches on all of
     them within the fault/submission budgets.

   - {b sleep sets}: a transition proven redundant at a state stays
     asleep in descendant states until a dependent transition executes,
     killing the symmetric half of each independent pair.

   - a {b fingerprint cache} with budget-vector dominance: a state
     revisited with no more remaining depth/fault/submission budget than
     a fully-explored earlier visit (and an empty sleep set recorded)
     cannot reach anything new.

   The explorer is stateless in the Godefroid sense: it keeps no state
   copies and re-executes the deterministic prefix on backtrack. *)

type budgets = { b_depth : int; b_faults : int; b_submits : int }

type stats = {
  mutable st_states : int;  (** choice points expanded *)
  mutable st_executed : int;  (** transitions executed (incl. replays) *)
  mutable st_enabled_sum : int;  (** Σ budget-eligible candidates *)
  mutable st_branches : int;  (** children actually explored *)
  mutable st_sleep_skips : int;
  mutable st_cache_hits : int;
  mutable st_races : int;  (** backtrack points added by DPOR *)
  mutable st_distinct : int;  (** distinct fingerprints seen *)
  mutable st_elapsed : float;  (** CPU seconds *)
}

type counterexample = {
  cx_script : Script.transition list;  (** minimized *)
  cx_raw_len : int;  (** length before minimization *)
  cx_violations : Check.Snapshot.violation list;
}

type outcome = {
  found : counterexample option;
  stats : stats;
  complete : bool;  (** false when [max_states] stopped the search *)
}

(* Reduction factor: how much wider the tree would have been had every
   budget-eligible candidate been branched at every expanded state. *)
let reduction_factor st =
  float_of_int st.st_enabled_sum /. float_of_int (max 1 st.st_branches)

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>states expanded:    %d@,transitions run:    %d@,distinct states:    \
     %d@,branches explored:  %d@,candidate branches: %d@,DPOR reduction:     \
     %.2fx@,sleep-set skips:    %d@,cache hits:         %d@,races detected:    \
     %d@,elapsed:            %.2fs (%.0f states/s)@]"
    st.st_states st.st_executed st.st_distinct st.st_branches st.st_enabled_sum
    (reduction_factor st) st.st_sleep_skips st.st_cache_hits st.st_races
    st.st_elapsed
    (float_of_int st.st_states /. Float.max 1e-6 st.st_elapsed)

(* ------------------------------------------------------------------ *)

type frame = {
  fr_enabled : Script.transition list;  (* budget-eligible at this state *)
  mutable fr_backtrack : Script.transition list;
  mutable fr_done : Script.transition list;
  mutable fr_chosen : Script.transition;
  mutable fr_appends : Conf_id.t list;
}

let mem tr l = List.exists (Script.equal tr) l

let independent a a_app b b_app =
  match (a, b) with
  | Script.T_deliver n, Script.T_deliver m when not (Node_id.equal n m) ->
    not (List.exists (fun c -> List.exists (Conf_id.equal c) b_app) a_app)
  | _ -> false

exception Found of Script.transition list * Check.Snapshot.violation list
exception Limit

let replay_violations ~policy ~nodes script =
  let sys = System.create ~policy ~nodes () in
  let v0 = System.stabilize sys in
  if v0 <> [] then Some ([], v0)
  else
    let rec go prefix = function
      | [] -> None
      | tr :: rest ->
        let r = System.apply sys tr in
        if not r.System.applied then go prefix rest
        else if r.System.violations <> [] then
          Some (List.rev (tr :: prefix), r.System.violations)
        else go (tr :: prefix) rest
    in
    go [] script

(* Greedy delta-debugging of a failing script: drop one transition at a
   time, keep the drop whenever the replay still fails.  O(n²) replays,
   fine at model-checking depths. *)
let minimize ~policy ~nodes script =
  let fails s = replay_violations ~policy ~nodes s <> None in
  let rec go script i =
    if i >= List.length script then script
    else
      let cand = List.filteri (fun j _ -> j <> i) script in
      if fails cand then go cand i else go script (i + 1)
  in
  go script 0

let run ?(policy = Quorum.Dynamic_linear) ?(max_states = 5_000_000) ~nodes ~depth ~faults ~submits () =
  (* wall-clock of the exploration itself, reported in stats — not
     protocol-visible time.  repcheck: allow *)
  let started = Sys.time () in
  let stats =
    {
      st_states = 0;
      st_executed = 0;
      st_enabled_sum = 0;
      st_branches = 0;
      st_sleep_skips = 0;
      st_cache_hits = 0;
      st_races = 0;
      st_distinct = 0;
      st_elapsed = 0.;
    }
  in
  let cache : (string, (int * int * int) list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let dominated fp (d, f, s) =
    match Hashtbl.find_opt cache fp with
    | None ->
      stats.st_distinct <- stats.st_distinct + 1;
      (* Seed the entry so revisits count as known states, not new. *)
      Hashtbl.replace cache fp [];
      false
    | Some vs -> List.exists (fun (d', f', s') -> d' >= d && f' >= f && s' >= s) vs
  in
  let remember fp (d, f, s) =
    let vs = Option.value ~default:[] (Hashtbl.find_opt cache fp) in
    if not (List.exists (fun (d', f', s') -> d' >= d && f' >= f && s' >= s) vs)
    then Hashtbl.replace cache fp ((d, f, s) :: vs)
  in
  let build prefix =
    let sys = System.create ~policy ~nodes () in
    (match System.stabilize sys with
    | [] -> ()
    | v -> raise (Found ([], v)));
    List.iter (fun tr -> ignore (System.apply sys tr)) prefix;
    sys
  in
  (* The DFS path, deepest frame first, for race detection. *)
  let path : frame list ref = ref [] in
  (* [sys] is positioned after [prefix]; ownership moves to the first
     child, later children rebuild by replay. *)
  let rec visit sys prefix sleep budgets =
    if stats.st_states >= max_states then raise Limit;
    stats.st_states <- stats.st_states + 1;
    let fp = System.fingerprint sys in
    let bud = (budgets.b_depth, budgets.b_faults, budgets.b_submits) in
    if dominated fp bud then
      stats.st_cache_hits <- stats.st_cache_hits + 1
    else begin
      let budget_ok = function
        | Script.T_deliver _ -> budgets.b_depth > 0
        | Script.T_submit _ -> budgets.b_submits > 0
        | Script.T_crash _ | Script.T_recover _ | Script.T_partition _
        | Script.T_merge ->
          budgets.b_faults > 0
      in
      let candidates = List.filter budget_ok (System.enabled sys) in
      stats.st_enabled_sum <- stats.st_enabled_sum + List.length candidates;
      let delivers, optional = List.partition Script.is_deliver candidates in
      let frame =
        {
          fr_enabled = candidates;
          (* Branch every optional action; seed one delivery and let
             race detection demand the rest. *)
          fr_backtrack =
            (match delivers with [] -> optional | d :: _ -> d :: optional);
          fr_done = [];
          fr_chosen = Script.T_merge;
          fr_appends = [];
        }
      in
      path := frame :: !path;
      let executed = ref [] in
      (* (tr, appends) of explored siblings *)
      let live = ref (Some sys) in
      let take () =
        List.find_opt (fun tr -> not (mem tr frame.fr_done)) frame.fr_backtrack
      in
      let rec loop () =
        match take () with
        | None -> ()
        | Some tr ->
          frame.fr_done <- tr :: frame.fr_done;
          if List.exists (fun (u, _) -> Script.equal u tr) sleep then
            stats.st_sleep_skips <- stats.st_sleep_skips + 1
          else begin
            let sys =
              match !live with
              | Some s ->
                live := None;
                s
              | None -> build prefix
            in
            frame.fr_chosen <- tr;
            let r = System.apply sys tr in
            if r.System.applied then begin
              stats.st_executed <- stats.st_executed + 1;
              stats.st_branches <- stats.st_branches + 1;
              frame.fr_appends <- r.System.appends;
              if Script.is_deliver tr then detect_races tr r.System.appends;
              if r.System.violations <> [] then
                raise (Found (prefix @ [ tr ], r.System.violations));
              let sleep' =
                if Script.is_deliver tr then
                  List.filter
                    (fun (u, u_app) -> independent tr r.System.appends u u_app)
                    (sleep @ !executed)
                else [] (* faults and submissions depend on everything *)
              in
              executed := (tr, r.System.appends) :: !executed;
              let budgets' =
                match tr with
                | Script.T_deliver _ ->
                  { budgets with b_depth = budgets.b_depth - 1 }
                | Script.T_submit _ ->
                  { budgets with b_submits = budgets.b_submits - 1 }
                | _ -> { budgets with b_faults = budgets.b_faults - 1 }
              in
              visit sys (prefix @ [ tr ]) sleep' budgets'
            end
          end;
          loop ()
      in
      loop ();
      path := List.tl !path;
      if sleep = [] then remember fp bud
    end
  (* An executed delivery [tr] races with the most recent path transition
     it depends on: that choice point must also try [tr] first. *)
  and detect_races tr appends =
    let n = match tr with Script.T_deliver n -> n | _ -> assert false in
    let rec scan = function
      | [] -> ()
      | fr :: rest -> (
        match fr.fr_chosen with
        | Script.T_deliver m
          when (not (Node_id.equal m n))
               && List.exists
                    (fun c -> List.exists (Conf_id.equal c) fr.fr_appends)
                    appends ->
          let to_add =
            if mem tr fr.fr_enabled then [ tr ]
            else List.filter Script.is_deliver fr.fr_enabled
          in
          let added = ref false in
          List.iter
            (fun u ->
              if not (mem u fr.fr_backtrack) then begin
                fr.fr_backtrack <- fr.fr_backtrack @ [ u ];
                added := true
              end)
            to_add;
          if !added then stats.st_races <- stats.st_races + 1
        | _ -> scan rest)
    in
    (* skip the current frame (head): it chose [tr] itself *)
    match !path with [] -> () | _ :: ancestors -> scan ancestors
  in
  let finish found complete =
    stats.st_elapsed <- Sys.time () -. started (* repcheck: allow *);
    { found; stats; complete }
  in
  match
    let sys = build [] in
    visit sys [] [] { b_depth = depth; b_faults = faults; b_submits = submits }
  with
  | () -> finish None true
  | exception Limit -> finish None false
  | exception Found (script, _) ->
    let raw_len = List.length script in
    let script = minimize ~policy ~nodes script in
    let violations =
      match replay_violations ~policy ~nodes script with
      | Some (_, v) -> v
      | None -> [] (* unreachable: minimize preserves failure *)
    in
    finish
      (Some { cx_script = script; cx_raw_len = raw_len; cx_violations = violations })
      true
