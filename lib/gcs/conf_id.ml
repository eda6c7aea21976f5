open Repro_net

type t = { coord : Node_id.t; counter : int }

let compare a b =
  let c = Int.compare a.counter b.counter in
  if c <> 0 then c else Node_id.compare a.coord b.coord

let equal a b = compare a b = 0
let to_string t = "c" ^ string_of_int t.coord ^ "." ^ string_of_int t.counter
