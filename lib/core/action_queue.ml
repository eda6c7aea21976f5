open Repro_net
open Repro_db

type t = {
  mutable green : Action.t array; (* growable; slot i = green position i+1 *)
  mutable green_count : int;
  mutable floor : int; (* positions <= floor have no body *)
  mutable floor_line : Action.Id.t option;
  mutable red : Action.t list;
      (* newest first; may hold lazily-deleted entries — [bodies] is
         the authoritative membership index *)
  mutable red_count : int; (* live entries in [red] *)
  mutable red_dead : int; (* tombstoned entries still in [red] *)
  cut : int Node_id.Tbl.t;
      (* per creator: index of its last green action.  Greens are FIFO
         per creator, so an id is green iff its index is at or below
         its creator's cut — no per-id index is needed. *)
  bodies : Action.t Action.Id.Tbl.t;
      (* live red ids.  A green body lives only in [green], which both
         lookups of a body by id skip. *)
}

let create () =
  {
    green = [||];
    green_count = 0;
    floor = 0;
    floor_line = None;
    red = [];
    red_count = 0;
    red_dead = 0;
    cut = Node_id.Tbl.create 16;
    bodies = Action.Id.Tbl.create 256;
  }

let green_count t = t.green_count
let green_floor t = t.floor

let green_line t =
  if t.green_count = 0 then None
  else if t.green_count = t.floor then t.floor_line
  else Some (t.green.(t.green_count - 1 - t.floor)).Action.id

let nth_green t n =
  if n <= t.floor || n > t.green_count then
    invalid_arg
      (Printf.sprintf "Action_queue.nth_green: %d not in (%d, %d]" n t.floor
         t.green_count);
  t.green.(n - 1 - t.floor)

let greens_from t n =
  let start = max n t.floor in
  let rec collect i acc =
    if i <= start then acc else collect (i - 1) (nth_green t i :: acc)
  in
  collect t.green_count []

let set_join_floor t ~count ~line ~cut =
  if t.green_count <> 0 || t.red_count <> 0 then
    invalid_arg "Action_queue.set_join_floor: queue not empty";
  t.floor <- count;
  t.green_count <- count;
  t.floor_line <- line;
  Node_id.Map.iter (fun s c -> Node_id.Tbl.replace t.cut s c) cut

(* No option box: asked once per delivered action. *)
let green_cut t s =
  match Node_id.Tbl.find t.cut s with c -> c | exception Not_found -> 0

let green_cut_map t =
  Node_id.Tbl.fold (fun s c acc -> Node_id.Map.add s c acc) t.cut Node_id.Map.empty

let is_green t (id : Action.Id.t) = id.index <= green_cut t id.server

let discard_below t n =
  let n = min n t.green_count in
  if n <= t.floor then 0
  else begin
    let dropped = n - t.floor in
    let stored = t.green_count - t.floor in
    (* The last discarded body becomes the floor line. *)
    let last = t.green.(dropped - 1) in
    let remaining = stored - dropped in
    (* The suffix moves down in place, so the array keeps the capacity
       the next greens fill; every slot above it then holds a retained
       body (or, with none retained, the array goes), so no discarded
       body stays reachable. *)
    if remaining = 0 then t.green <- [||]
    else begin
      Array.blit t.green dropped t.green 0 remaining;
      Array.fill t.green remaining (Array.length t.green - remaining) t.green.(0)
    end;
    t.floor <- n;
    t.floor_line <- Some last.Action.id;
    dropped
  end
  (* Walks the retained green suffix and the discarded slots — the
     in-memory image of the log kept above the checkpoint floor. *)
  [@@analysis.cost "O(log); alloc O(1)"]

(* O(1) amortized: capacity doubles, so each copied slot is paid for by
   the append that first filled it. *)
let grow t a =
  let stored = t.green_count - t.floor in
  let cap = Array.length t.green in
  if stored = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ng = Array.make ncap a in
    Array.blit t.green 0 ng 0 stored;
    t.green <- ng
  end
  [@@analysis.cost "O(1); alloc O(1)"]

(* O(1) amortized: membership is a hashtable lookup and deletion is
   lazy — the list entry becomes a tombstone, swept out only when
   tombstones outnumber live entries (so each sweep's O(n) is paid for
   by the n removals that preceded it). *)
let remove_red t id =
  if Action.Id.Tbl.mem t.bodies id then begin
    Action.Id.Tbl.remove t.bodies id;
    t.red_count <- t.red_count - 1;
    t.red_dead <- t.red_dead + 1;
    if t.red_dead > t.red_count + 64 then begin
      t.red <-
        List.filter (fun a -> Action.Id.Tbl.mem t.bodies a.Action.id) t.red;
      t.red_dead <- 0
    end
  end

let append_green t a =
  if is_green t a.Action.id then
    invalid_arg "Action_queue.append_green: already green";
  remove_red t a.Action.id;
  grow t a;
  t.green.(t.green_count - t.floor) <- a;
  t.green_count <- t.green_count + 1;
  Node_id.Tbl.replace t.cut a.Action.id.server a.Action.id.index;
  t.green_count

let add_red t a =
  if not (is_green t a.Action.id || Action.Id.Tbl.mem t.bodies a.Action.id)
  then begin
    t.red <- a :: t.red;
    t.red_count <- t.red_count + 1;
    Action.Id.Tbl.replace t.bodies a.Action.id a
  end

let red_actions t =
  List.rev
    (List.filter (fun a -> Action.Id.Tbl.mem t.bodies a.Action.id) t.red)
let red_count t = t.red_count
let find t id = Action.Id.Tbl.find_opt t.bodies id
