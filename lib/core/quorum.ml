open Repro_net

let has_majority ~prev candidate =
  match Node_id.Set.min_elt_opt prev with
  | None -> false
  | Some tie_breaker ->
    let have = Node_id.Set.cardinal (Node_id.Set.inter candidate prev)
    and all = Node_id.Set.cardinal prev in
    2 * have > all
    || (2 * have = all && Node_id.Set.mem tie_breaker candidate)

let is_quorum ~prev ~vulnerable_present candidate =
  (not vulnerable_present) && has_majority ~prev candidate

type policy = Dynamic_linear | Static_majority | Mutated_weak_majority

(* The seeded bug: >= instead of >, and no tie-breaker, so two disjoint
   halves of the previous primary can both pass. *)
let has_weak_majority ~prev candidate =
  (not (Node_id.Set.is_empty prev))
  && 2 * Node_id.Set.cardinal (Node_id.Set.inter candidate prev)
     >= Node_id.Set.cardinal prev

let policy_quorum policy ~prev ~all ~vulnerable_present candidate =
  match policy with
  | Dynamic_linear -> is_quorum ~prev ~vulnerable_present candidate
  | Static_majority -> is_quorum ~prev:all ~vulnerable_present candidate
  | Mutated_weak_majority ->
    (not vulnerable_present) && has_weak_majority ~prev candidate
