open Repro_net
open Repro_db
open Repro_core

type violation = {
  v_invariant : string;
  v_node : Node_id.t option;
  v_detail : string;
}

let pp_violation ppf v =
  match v.v_node with
  | Some n ->
    Format.fprintf ppf "[%s] %a: %s" v.v_invariant Node_id.pp n v.v_detail
  | None -> Format.fprintf ppf "[%s] %s" v.v_invariant v.v_detail

let violation ?node invariant fmt =
  Format.kasprintf
    (fun v_detail -> { v_invariant = invariant; v_node = node; v_detail })
    fmt

type node_snap = {
  ns_node : Node_id.t;
  ns_incarnation : int;
  ns_state : Types.engine_state;
  ns_green_floor : int;  (** positions below it hold no bodies here *)
  ns_green : Action.t list;  (** green order, above the floor *)
  ns_green_count : int;
  ns_green_line : Action.Id.t option;
  ns_red : Action.t list;
  ns_yellow : Types.yellow;
  ns_red_cut : int Node_id.Map.t;
  ns_white_line : int;
  ns_prim : Types.prim_component;
  ns_vulnerable : Types.vulnerable;
  ns_in_primary : bool;
  ns_attempt : int;
  ns_ongoing : Action.t list;
  ns_known_servers : Node_id.Set.t;
}

let of_replica r =
  if not (Replica.is_ready r) then None
  else
    let e = Replica.engine r in
    let greens = Engine.green_actions e in
    let green_count = Engine.green_count e in
    Some
      {
        ns_node = Engine.node e;
        ns_incarnation = Replica.incarnation r;
        ns_state = Engine.state e;
        ns_green_floor = green_count - List.length greens;
        ns_green = greens;
        ns_green_count = green_count;
        ns_green_line = Engine.green_line e;
        ns_red = Engine.red_actions e;
        ns_yellow = Engine.yellow e;
        ns_red_cut = Engine.red_cut_map e;
        ns_white_line = Engine.white_line e;
        ns_prim = Engine.prim_component e;
        ns_vulnerable = Engine.vulnerable e;
        ns_in_primary = Engine.in_primary e;
        ns_attempt = Engine.attempt e;
        ns_ongoing = Engine.ongoing_actions e;
        ns_known_servers = Engine.known_servers e;
      }

let bprint_facts b s =
  let node = Node_id.to_string s.ns_node in
  let line name bprint v = Printf.bprintf b "%s %s %a\n" node name bprint v in
  let listed bprint b l = Printf.bprintf b "[%a]" bprint l in
  let text = Buffer.add_string in
  line "state" text (Types.engine_state_name s.ns_state);
  line "in-primary" text (string_of_bool s.ns_in_primary);
  line "prim" Types.bprint_prim s.ns_prim;
  line "attempt" text (string_of_int s.ns_attempt);
  line "vulnerable" Types.bprint_vulnerable s.ns_vulnerable;
  line "yellow" Types.bprint_yellow s.ns_yellow;
  line "green-count" text (string_of_int s.ns_green_count);
  line "green-floor" text (string_of_int s.ns_green_floor);
  line "green" (listed Types.bprint_actions) s.ns_green;
  line "green-line" (listed Types.bprint_ids) (Option.to_list s.ns_green_line);
  line "red" (listed Types.bprint_actions) s.ns_red;
  line "red-cut" (listed Types.bprint_cut) s.ns_red_cut;
  line "ongoing" (listed Types.bprint_actions) s.ns_ongoing;
  line "white" text (string_of_int s.ns_white_line);
  line "known" text (Node_id.set_to_string s.ns_known_servers)

let facts s =
  let b = Buffer.create 512 in
  bprint_facts b s;
  List.filter
    (fun l -> not (String.equal l ""))
    (String.split_on_char '\n' (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Instantaneous invariants over one observation (a set of snapshots)  *)

let drop n l =
  let rec go n l =
    if n <= 0 then l else match l with [] -> [] | _ :: tl -> go (n - 1) tl
  in
  go n l

(* Compare the overlap of two green sequences, position by position. *)
let prefix_disagreement a b =
  let base = max a.ns_green_floor b.ns_green_floor in
  let ga = drop (base - a.ns_green_floor) a.ns_green
  and gb = drop (base - b.ns_green_floor) b.ns_green in
  let rec go pos ga gb =
    match (ga, gb) with
    | [], _ | _, [] -> None
    | (x : Action.t) :: ga', (y : Action.t) :: gb' ->
      if Action.Id.equal x.id y.id then go (pos + 1) ga' gb'
      else Some (pos, x.id, y.id)
  in
  go (base + 1) ga gb

(* Global total order (paper §5.2, Global Total Order): the green
   prefixes of any two replicas agree on their overlap.  One reference
   comparison per node: agreement with a common reference that covers
   the overlap region is transitive, so pairwise checks are redundant —
   except below the reference's own floor, where we fall back to
   pairwise over the (rare) nodes that still hold such early bodies. *)
let check_total_order snaps =
  match snaps with
  | [] | [ _ ] -> []
  | _ ->
    let reference =
      List.fold_left
        (fun best s ->
          match best with
          | None -> Some s
          | Some b ->
            if
              s.ns_green_count > b.ns_green_count
              || (s.ns_green_count = b.ns_green_count
                 && s.ns_green_floor < b.ns_green_floor)
            then Some s
            else best)
        None snaps
    in
    let reference = Option.get reference in
    let against_ref =
      List.concat_map
        (fun s ->
          if Node_id.equal s.ns_node reference.ns_node then []
          else
            match prefix_disagreement reference s with
            | None -> []
            | Some (pos, x, y) ->
              [
                violation ~node:s.ns_node "global-total-order"
                  "green position %d disagrees with %a: %a vs %a" pos
                  Node_id.pp reference.ns_node Action.Id.pp y Action.Id.pp x;
              ])
        snaps
    in
    (* Positions below the reference's floor are not covered by it:
       compare the nodes still holding them pairwise on that region. *)
    let below = List.filter (fun s -> s.ns_green_floor < reference.ns_green_floor) snaps in
    let rec pairs = function
      | [] | [ _ ] -> []
      | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
    in
    let below_ref =
      List.concat_map
        (fun (a, b) ->
          let cut s =
            {
              s with
              ns_green =
                (* keep only the segment below the reference's floor *)
                (let keep = reference.ns_green_floor - s.ns_green_floor in
                 List.filteri (fun i _ -> i < keep) s.ns_green);
            }
          in
          match prefix_disagreement (cut a) (cut b) with
          | None -> []
          | Some (pos, x, y) ->
            [
              violation ~node:a.ns_node "global-total-order"
                "green position %d disagrees with %a: %a vs %a" pos
                Node_id.pp b.ns_node Action.Id.pp x Action.Id.pp y;
            ])
        (pairs below)
    in
    against_ref @ below_ref

(* Global FIFO order (paper §5.2): inside every green sequence the
   indices of one creator are gap-free and increasing. *)
let check_fifo snaps =
  List.concat_map
    (fun s ->
      let seen : (Node_id.t, int) Hashtbl.t = Hashtbl.create 16 in
      List.filter_map
        (fun (a : Action.t) ->
          let id = a.id in
          let prev =
            match Hashtbl.find_opt seen id.server with
            | Some i -> i
            | None -> id.index - 1
            (* a snapshot-inherited prefix may hide earlier indices:
               the first occurrence is the baseline *)
          in
          Hashtbl.replace seen id.server id.index;
          if id.index <> prev + 1 then
            Some
              (violation ~node:s.ns_node "global-fifo"
                 "green %a follows index %d of the same creator" Action.Id.pp
                 id prev)
          else None)
        s.ns_green)
    snaps

(* Quorum exclusivity of primary components: among replicas currently
   operating in a primary component, all agree on the last installed
   component — a second live component with the same index (split
   brain) or a live member outside its own component's membership is a
   violation of the paper's §4 exclusivity argument. *)
let check_primary_exclusivity snaps =
  let live = List.filter (fun s -> s.ns_in_primary) snaps in
  let membership =
    List.filter_map
      (fun s ->
        if Node_id.Set.mem s.ns_node s.ns_prim.Types.prim_servers then None
        else
          Some
            (violation ~node:s.ns_node "primary-exclusivity"
               "operates in primary %d without being a member"
               s.ns_prim.Types.prim_index))
      live
  in
  let split =
    match live with
    | [] | [ _ ] -> []
    | first :: rest ->
      List.concat_map
        (fun s ->
          if
            s.ns_prim.Types.prim_index = first.ns_prim.Types.prim_index
            && (s.ns_prim.Types.prim_attempt <> first.ns_prim.Types.prim_attempt
               || not
                    (Node_id.Set.equal s.ns_prim.Types.prim_servers
                       first.ns_prim.Types.prim_servers))
          then
            [
              violation ~node:s.ns_node "primary-exclusivity"
                "live primary %d differs from %a's (attempt %d vs %d)"
                s.ns_prim.Types.prim_index Node_id.pp first.ns_node
                s.ns_prim.Types.prim_attempt first.ns_prim.Types.prim_attempt;
            ]
          else [])
        rest
  in
  membership @ split

(* Internal coherence of one snapshot: the green line is the last green
   id; white never runs ahead of green; a valid yellow set never
   contains an id at or below the white line (white means green at
   every server, so it cannot still be provisional anywhere). *)
let check_coherence snaps =
  List.concat_map
    (fun s ->
      let issues = ref [] in
      (match (s.ns_green_line, List.rev s.ns_green) with
      | Some line, last :: _ when not (Action.Id.equal line last.Action.id) ->
        issues :=
          violation ~node:s.ns_node "green-line"
            "green line %a does not match last green %a" Action.Id.pp line
            Action.Id.pp last.Action.id
          :: !issues
      | _ -> ());
      if s.ns_white_line > s.ns_green_count then
        issues :=
          violation ~node:s.ns_node "white-line"
            "white line %d beyond green count %d" s.ns_white_line
            s.ns_green_count
          :: !issues;
      List.iteri
        (fun i (a : Action.t) ->
          let id = a.id in
          let pos = s.ns_green_floor + i + 1 in
          if
            s.ns_yellow.Types.y_valid
            && List.exists (Action.Id.equal id) s.ns_yellow.Types.y_set
            && pos <= s.ns_white_line
          then
            issues :=
              violation ~node:s.ns_node "color-order"
                "white action %a still in the valid yellow set" Action.Id.pp id
              :: !issues)
        s.ns_green;
      !issues)
    snaps

(* ------------------------------------------------------------------ *)
(* Step invariants: one node observed twice (same incarnation)         *)

(* Per-action color monotonicity, red -> yellow -> green -> white
   (paper Figure 1/3).  Green and white knowledge is irrevocable while
   the process lives: the green prefix is append-only, counts and cuts
   only grow.  (Yellow is provisional by design — a transitional-
   configuration delivery may be invalidated by the next exchange's
   intersection, OR-1 — so yellow->red is legitimate and not flagged.) *)
let check_step ~prev ~cur =
  if cur.ns_incarnation <> prev.ns_incarnation then []
  else begin
    let issues = ref [] in
    let flag inv fmt = Format.kasprintf
        (fun d -> issues := { v_invariant = inv; v_node = Some cur.ns_node; v_detail = d } :: !issues)
        fmt
    in
    if cur.ns_green_count < prev.ns_green_count then
      flag "green-monotone" "green count regressed %d -> %d"
        prev.ns_green_count cur.ns_green_count;
    if cur.ns_white_line < prev.ns_white_line then
      flag "white-monotone" "white line regressed %d -> %d" prev.ns_white_line
        cur.ns_white_line;
    if cur.ns_green_floor < prev.ns_green_floor then
      flag "green-floor" "green floor regressed %d -> %d" prev.ns_green_floor
        cur.ns_green_floor;
    Node_id.Map.iter
      (fun creator c ->
        match Node_id.Map.find_opt creator cur.ns_red_cut with
        | Some c' when c' < c ->
          flag "red-cut-monotone" "red cut of creator %a regressed %d -> %d"
            Node_id.pp creator c c'
        | Some _ -> ()
        | None ->
          flag "red-cut-monotone" "red cut of creator %a disappeared (was %d)"
            Node_id.pp creator c)
      prev.ns_red_cut;
    (* Append-only green prefix: whatever was green stays green, at the
       same position, until it falls below the floor (white GC). *)
    let skip = cur.ns_green_floor - prev.ns_green_floor in
    let rec align pos prev_greens cur_greens =
      match (prev_greens, cur_greens) with
      | [], _ -> ()
      | _ :: _, [] ->
        flag "green-append-only" "green position %d disappeared" pos
      | (x : Action.t) :: p', (y : Action.t) :: c' ->
        if not (Action.Id.equal x.id y.id) then
          flag "green-append-only" "green position %d changed %a -> %a" pos
            Action.Id.pp x.id Action.Id.pp y.id
        else align (pos + 1) p' c'
    in
    align (cur.ns_green_floor + 1) (drop skip prev.ns_green) cur.ns_green;
    List.rev !issues
  end

(* The instantaneous catalogue in one call. *)
let check_observation snaps =
  check_total_order snaps @ check_fifo snaps @ check_primary_exclusivity snaps
  @ check_coherence snaps

(* One sweep: the instantaneous catalogue, then each node's step against
   its previous snapshot in [history] (the node's baseline from here on). *)
let sweep history snaps =
  check_observation snaps
  @ List.concat_map
      (fun cur ->
        let prev = Hashtbl.find_opt history cur.ns_node in
        Hashtbl.replace history cur.ns_node cur;
        match prev with Some prev -> check_step ~prev ~cur | None -> [])
      snaps
