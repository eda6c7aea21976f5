open Repro_db
open Repro_core
module Snapshot = Repro_check.Snapshot

type violation = Snapshot.violation

let pp_violation = Snapshot.pp_violation
let violation = Snapshot.violation

let ready_engines replicas =
  List.filter_map
    (fun r -> if Replica.is_ready r then Some (r, Replica.engine r) else None)
    replicas

let check_single_primary replicas =
  let engines = ready_engines replicas in
  let in_prim = List.filter (fun (r, _) -> Replica.in_primary r) engines in
  let indices =
    List.sort_uniq Int.compare
      (List.map (fun (_, e) -> (Engine.prim_component e).Types.prim_index) in_prim)
  in
  match indices with
  | [] | [ _ ] -> []
  | _ ->
    [
      violation "single-primary" "replicas operate in %d distinct primaries"
        (List.length indices);
    ]

let check_convergence replicas =
  let engines = ready_engines replicas in
  match engines with
  | [] -> []
  | (r0, e0) :: rest ->
    let count0 = Engine.green_count e0 in
    let digest0 = Database.digest (Replica.database r0) in
    let dedup0 = Replica.dedup_summary r0 in
    let summaries_equal =
      List.equal (fun (c, h, a) (c', h', a') -> c = c' && h = h' && a = a')
    in
    List.concat_map
      (fun (r, e) ->
        let node = Replica.node r in
        let issues = ref [] in
        if Engine.green_count e <> count0 then
          issues :=
            violation ~node "convergence" "green count %d vs n%d's %d"
              (Engine.green_count e) (Replica.node r0) count0
            :: !issues;
        if Database.digest (Replica.database r) <> digest0 then
          issues :=
            violation ~node "convergence" "database differs from n%d's"
              (Replica.node r0)
            :: !issues;
        (* The exactly-once window is replicated state too: replicas at
           the same green position must agree on every client's highest
           applied and acked sequence numbers. *)
        if not (summaries_equal (Replica.dedup_summary r) dedup0) then
          issues :=
            violation ~node "convergence"
              "exactly-once window differs from n%d's" (Replica.node r0)
            :: !issues;
        !issues)
      rest

(* ------------------------------------------------------------------ *)
(* The client-visible exactly-once oracle                              *)

(* One client's view of its own counter-increment stream: [l_key] is a
   key only this client writes, each acknowledged request added exactly
   1 to it, so on every converged replica
   [l_acked <= value(l_key) <= l_issued] — a value below the acks means
   an acknowledged increment was lost; above the issues means some
   retry was applied twice. *)
type ledger = { l_client : int; l_key : string; l_issued : int; l_acked : int }

let check_exactly_once ~ledgers replicas =
  let ready = List.filter Replica.is_ready replicas in
  List.concat_map
    (fun r ->
      let node = Replica.node r in
      List.filter_map
        (fun l ->
          let v =
            match Database.get (Replica.database r) l.l_key with
            | Some (Value.Int n) -> n
            | Some _ -> min_int (* wrong type: flag as lost *)
            | None -> 0
          in
          if v < l.l_acked then
            Some
              (violation ~node "exactly-once"
                 "lost ack: client %d acked %d increments of %s, %d held"
                 l.l_client l.l_acked l.l_key v)
          else if v > l.l_issued then
            Some
              (violation ~node "exactly-once"
                 "double-apply: client %d issued %d increments of %s, %d held"
                 l.l_client l.l_issued l.l_key v)
          else None)
        ledgers)
    ready

(* Theorems 1 and 2 (global total order, global FIFO) have one
   implementation, [Snapshot]'s. *)
let check_all ?(converged = false) replicas =
  let snaps = List.filter_map Snapshot.of_replica replicas in
  Snapshot.check_total_order snaps
  @ Snapshot.check_fifo snaps
  @ check_single_primary replicas
  @ if converged then check_convergence replicas else []
