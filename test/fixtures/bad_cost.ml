(* Seeds: hotpath-cost / hotpath-alloc / boxed-float-comparator.  Each
   bad shape is a miniature of a real hot-path regression: a per-event
   membership scan smuggled under an O(1) budget, a closure allocated
   per message under an alloc O(1) budget, and a float-comparator
   literal handed to a polymorphic sort.  [roster_size_ok] is the clean
   twin: same annotation discipline, genuinely constant work. *)

type msg = { sender : Repro_net.Node_id.t; body : string }

(* Per-event scan of the full membership: O(members) work inside an
   O(1) budget.  The analysis must flag the List.exists walk. *)
let roster_scan (roster : Repro_net.Node_id.t list) (m : msg) =
  List.exists (fun n -> Repro_net.Node_id.equal n m.sender) roster
[@@analysis.hotpath "O(1)"]

(* The work budget fits (one pass over the batch) but a closure is
   consed per message: alloc O(batch) against a declared alloc O(1). *)
let closure_per_message (sink : (unit -> unit) list ref) (ms : msg list) =
  List.iter (fun m -> sink := (fun () -> ignore m.body) :: !sink) ms
[@@analysis.hotpath "O(batch); alloc O(1)"]

(* A function-literal float comparator: both floats are boxed on every
   comparison.  Structural rule, fires with or without a budget. *)
let percentile_sort (xs : float array) =
  Array.sort (fun (a : float) (b : float) -> Float.compare a b) xs

(* Clean twin: annotated hot path that really is constant-time. *)
let roster_size_ok (roster : Repro_net.Node_id.t array) = Array.length roster
[@@analysis.hotpath "O(1)"]

(* The same membership scan hidden in a [when] guard of a match-lambda
   root: the guard runs on every call, so its O(members) walk counts
   against the O(1) budget exactly as a scan in a case body would. *)
let guarded_dispatch (roster : Repro_net.Node_id.t list) = function
  | (m : msg) when List.exists (Repro_net.Node_id.equal m.sender) roster ->
    m.body
  | _ -> ""
[@@analysis.hotpath "O(1)"]

(* The membership scan again, as a fold over a node-keyed table whose
   module another unit exports ([Node_id_tbl.Tbl] is [Hashtbl.Make],
   as lib/net's [Node_id.Tbl] is): the walk is O(members) however the
   table is spelled.  The fixtures sit in the database rules' scope, so
   the same spelling also trips no-unordered-iteration-in-db. *)
let table_scan (heard : int Node_id_tbl.Tbl.t) =
  Node_id_tbl.Tbl.fold (fun _ c acc -> max c acc) heard 0
[@@analysis.hotpath "O(1)"]
