module Sim = Repro_sim
open Repro_net
open Repro_db
open Repro_core

(* Determinism checking: the simulation is virtual-time and seeded, so
   two runs of the same scenario with the same seed must be bit-for-bit
   identical.  A run builds its replicas, we reduce them to a canonical
   line-per-fact fingerprint, and two fingerprints diff textually —
   mismatching lines point straight at the first diverging replica. *)

let fingerprint_replica r =
  let node = Replica.node r in
  let line fmt = Format.asprintf ("n%a " ^^ fmt) Node_id.pp node in
  if not (Replica.is_up r) then [ line "down" ]
  else if not (Replica.is_ready r) then [ line "not-ready" ]
  else begin
    let e = Replica.engine r in
    let ids l =
      String.concat ","
        (List.map (fun id -> Format.asprintf "%a" Action.Id.pp id) l)
    in
    let action_ids l = ids (List.map (fun a -> a.Action.id) l) in
    let greens = Engine.green_actions e in
    [
      line "state %a" Types.pp_engine_state (Engine.state e);
      line "green count=%d floor=%d [%s]" (Engine.green_count e)
        (Engine.green_count e - List.length greens)
        (action_ids greens);
      line "red [%s]" (action_ids (Engine.red_actions e));
      line "red-cut %s"
        (String.concat ","
           (List.map
              (fun (n, c) -> Format.asprintf "%a:%d" Node_id.pp n c)
              (Node_id.Map.bindings (Engine.red_cut_map e))));
      line "white %d" (Engine.white_line e);
      line "prim %d/%d %a" (Engine.prim_component e).Types.prim_index
        (Engine.prim_component e).Types.prim_attempt Node_id.pp_set
        (Engine.prim_component e).Types.prim_servers;
      line "db digest=%d version=%d"
        (Database.digest (Replica.database r))
        (Database.version (Replica.database r));
      line "applied %d" (Replica.greens_applied r);
    ]
  end

let fingerprint ?sim replicas =
  let sorted =
    List.sort
      (fun a b -> Node_id.compare (Replica.node a) (Replica.node b))
      replicas
  in
  let head =
    match sim with
    | Some s -> [ Format.asprintf "time %a" Sim.Time.pp (Sim.Engine.now s) ]
    | None -> []
  in
  head @ List.concat_map fingerprint_replica sorted

let diff a b =
  let rec go i a b acc =
    match (a, b) with
    | [], [] -> List.rev acc
    | x :: a', y :: b' ->
      let acc =
        if String.equal x y then acc
        else Printf.sprintf "line %d: run1 %S / run2 %S" i x y :: acc
      in
      go (i + 1) a' b' acc
    | x :: a', [] -> go (i + 1) a' [] (Printf.sprintf "line %d: only run1 %S" i x :: acc)
    | [], y :: b' -> go (i + 1) [] b' (Printf.sprintf "line %d: only run2 %S" i y :: acc)
  in
  go 1 a b []

let check ~run () =
  let first = run () in
  let second = run () in
  diff first second
