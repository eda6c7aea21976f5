(* Not a seed: the node-keyed table module that [Bad_cost.table_scan]
   reaches through another unit, as lib code reaches [Node_id.Tbl]. *)
module Tbl = Hashtbl.Make (Repro_net.Node_id)
