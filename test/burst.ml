(* A burst of updates submitted while the submitter is inside a state
   exchange.  The engine buffers them and, when the exchange resolves,
   creates, logs and multicasts them together: one log frame, one
   force and one multi-action [Action_batch]. *)

open Repro_net
open Repro_core
open Repro_harness

let in_exchange e =
  match Engine.state e with
  | Types.Reg_prim | Types.Non_prim -> false
  | Types.Trans_prim | Types.Exchange_states | Types.Exchange_actions
  | Types.Construct | Types.No_state | Types.Un_state ->
    true

(* Cuts the highest-numbered node off, steps the world until [node]
   has entered the resulting exchange, and submits [count] updates to
   [node] there.  The partition is left in place. *)
let submit_during_exchange w ~node ~count ~key =
  let nodes = World.nodes w in
  let isolated = List.nth nodes (List.length nodes - 1) in
  Topology.partition (World.topology w)
    [ List.filter (fun n -> not (Node_id.equal n isolated)) nodes; [ isolated ] ];
  let r = World.replica w node in
  let rec step budget =
    if not (in_exchange (Replica.engine r)) then
      if budget = 0 then Alcotest.fail "the submitter never entered an exchange"
      else begin
        World.run w ~ms:0.1;
        step (budget - 1)
      end
  in
  step 50_000;
  for i = 1 to count do
    World.submit_update w ~node ~key:(key i) i
  done
