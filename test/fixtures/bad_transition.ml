(* Seeds: spec-drift.  [step] takes the replica straight from
   [Non_prim] to [Reg_prim] — a transition Figure 4 does not have (the
   only way back to a primary state is through Exchange_states).  The
   extraction must report the Non_prim -> Reg_prim edge as present in
   code but absent from the spec. *)

open Repro_core

type m = { mutable state : Types.engine_state }

let set_state m s = m.state <- s

let step m =
  match m.state with
  | Types.Non_prim -> set_state m Types.Reg_prim
  | Types.Reg_prim | Types.Trans_prim | Types.Exchange_states
  | Types.Exchange_actions | Types.Construct | Types.No_state | Types.Un_state
    ->
    ()

(* Clean twin, for refinement: [finish] is a root, so it is entered
   with every state possible, and Construct -> Reg_prim is legal only
   because the condition narrows the state set to {Construct}.  Without
   the narrowing the extraction would emit every state -> Reg_prim. *)
let finish m = if m.state = Types.Construct then set_state m Types.Reg_prim
