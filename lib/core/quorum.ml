open Repro_net

type weights = int Node_id.Map.t

let no_weights = Node_id.Map.empty

let weight weights n =
  match Node_id.Map.find_opt n weights with Some w -> w | None -> 1

let total weights set =
  Node_id.Set.fold (fun n acc -> acc + weight weights n) set 0

(* The tie-breaker: heaviest member of [prev]; lowest id among equals. *)
let tie_breaker weights prev =
  Node_id.Set.fold
    (fun n best ->
      match best with
      | None -> Some n
      | Some b ->
        let wn = weight weights n and wb = weight weights b in
        if wn > wb || (wn = wb && Node_id.compare n b < 0) then Some n else best)
    prev None

let has_majority ?(weights = no_weights) ~prev candidate =
  if Node_id.Set.is_empty prev then false
  else begin
    let present = Node_id.Set.inter candidate prev in
    let have = total weights present and all = total weights prev in
    if 2 * have > all then true
    else if 2 * have = all then
      match tie_breaker weights prev with
      | Some tb -> Node_id.Set.mem tb present
      | None -> false
    else false
  end

let is_quorum ?(weights = no_weights) ~prev ~vulnerable_present candidate =
  (not vulnerable_present) && has_majority ~weights ~prev candidate

type policy = Dynamic_linear | Static_majority | Mutated_weak_majority
type rule = { policy : policy; weights : weights }

(* The seeded bug: >= instead of >, and no tie-breaker, so two disjoint
   halves of the previous primary can both pass. *)
let has_weak_majority ?(weights = no_weights) ~prev candidate =
  if Node_id.Set.is_empty prev then false
  else begin
    let present = Node_id.Set.inter candidate prev in
    2 * total weights present >= total weights prev
  end

let policy_quorum policy ?(weights = no_weights) ~prev ~all ~vulnerable_present
    candidate =
  (not vulnerable_present)
  &&
  match policy with
  | Dynamic_linear -> has_majority ~weights ~prev candidate
  | Static_majority -> has_majority ~weights ~prev:all candidate
  | Mutated_weak_majority -> has_weak_majority ~weights ~prev candidate
