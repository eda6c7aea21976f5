(* One mutable hash table per version tree, with O(1) snapshots by
   Baker's rerooting trick (as in Conchon & Filliâtre's persistent
   arrays, 2007).  Every version is a [node]; exactly one node of a
   tree, the root, is [Live] and owns the table, and every other node is
   a [Diff] whose undo set, replayed against the next node's version,
   gives its own.  Reading a version first reroots the tree at it,
   inverting the undo sets on the path.

   A handle writes its own node in place.  Capturing a handle
   ([snapshot], [copy]) freezes that node and moves the handle to a
   fresh root; until the next capture, each write records the old
   binding of its key in the frozen node's undo set — once per key, so
   a retained version costs at most one entry per key per capture, not
   one per write. *)

type cell = { value : Value.t; ts : int }

(* Old bindings ([None]: unbound), at most one per key, replayed in
   list order. *)
type undo = Nil | Undo of string * cell option * undo

type node = { mutable data : data }

and data =
  | Live of cell Str_tbl.t  (* the root: the table is this version *)
  | Diff of { mutable undo : undo; next : node }
      (* this version is [next]'s with [undo] replayed *)

type snapshot = { s_node : node; s_version : int }

type t = {
  mutable node : node;
  mutable parent : node option;
      (* the last capture of this handle: while [node] is the root,
         [parent] is a [Diff] into [node] that holds the old binding of
         every key written since *)
  recorded : unit Str_tbl.t;  (* the keys in [parent]'s undo *)
  mutable version : int;
  mutable trace : (string -> unit) option;
      (* key-read observer, installed by the executor around a stored
         procedure so the runtime footprint validator sees the actual
         read set; [None] on the hot path *)
}

(* Replays [undo] against [tbl] and returns the inverse undo set. *)
let rec revert tbl undo inv =
  match undo with
  | Nil -> inv
  | Undo (k, old, rest) ->
    let inv = Undo (k, Str_tbl.find_opt tbl k, inv) in
    (match old with Some c -> Str_tbl.replace tbl k c | None -> Str_tbl.remove tbl k);
    revert tbl rest inv

(* Makes [n] the root of its tree and returns the table. *)
let rec reroot n =
  match n.data with
  | Live tbl -> tbl
  | Diff d ->
    let tbl = reroot d.next in
    d.next.data <- Diff { undo = revert tbl d.undo Nil; next = n };
    n.data <- Live tbl;
    tbl
  (* A handle's own node is the root except after an old version of its
     tree was read, so on the apply and checkpoint paths this returns at
     once.  A walk back replays the undo entries the excursion replayed:
     the excursion's caller paid for them (an O(keys) [of_snapshot] or
     [restore], or a copy's own writes). *)
  [@@analysis.cost "O(1); alloc O(1)"]

let table t =
  match t.node.data with Live tbl -> tbl | Diff _ -> reroot t.node

let make node ~parent ~version =
  { node; parent; recorded = Str_tbl.create 16; version; trace = None }

let create () =
  make { data = Live (Str_tbl.create 16) } ~parent:None ~version:0

let set_trace t f = t.trace <- f

(* Lookups on the read and apply paths use [find] with [Not_found]:
   [find_opt] would allocate an option box per key. *)
let get t k =
  (match t.trace with Some f -> f k | None -> ());
  match Str_tbl.find (table t) k with
  | c -> Some c.value
  | exception Not_found -> None

let timestamp t k =
  (match t.trace with Some f -> f k | None -> ());
  match Str_tbl.find (table t) k with c -> c.ts | exception Not_found -> 0

(* The first write of a key since the last capture saves its old
   binding in the captured node; [t.node] is the root here. *)
let record t tbl k =
  match t.parent with
  | Some { data = Diff d } when not (Str_tbl.mem t.recorded k) ->
    Str_tbl.replace t.recorded k ();
    d.undo <- Undo (k, Str_tbl.find_opt tbl k, d.undo)
  | Some _ | None -> ()

let bind t tbl k c =
  record t tbl k;
  Str_tbl.replace tbl k c

(* Key-class separation (paper §6, and the pairwise law Op.commutes
   promises): a key written through [Set_if_newer] carries ts > 0 and is
   a last-writer-wins register; a key written through [Add] is a counter
   and keeps ts = 0.  An [Add] against a register key is dropped, a
   [Set_if_newer] never beats the ts-0 sentinel, and equal-timestamp
   register writes resolve by value order — so any interleaving of
   commutative ops converges to the same state. *)
let apply_op t tbl = function
  | Op.Set (k, v) ->
    let ts = match Str_tbl.find tbl k with c -> c.ts | exception Not_found -> 0 in
    bind t tbl k { value = v; ts }
  | Op.Add (k, n) -> (
    match Str_tbl.find tbl k with
    | { ts; _ } when ts > 0 -> () (* register key: counter op dropped *)
    | { value = Value.Int v; ts } -> bind t tbl k { value = Value.Int (v + n); ts }
    | { value = Value.Text _; ts } -> bind t tbl k { value = Value.Int n; ts }
    | exception Not_found -> bind t tbl k { value = Value.Int n; ts = 0 })
  | Op.Remove k ->
    record t tbl k;
    Str_tbl.remove tbl k
  | Op.Set_if_newer (k, v, ts) -> (
    match Str_tbl.find tbl k with
    | c ->
      if ts > c.ts || (ts = c.ts && ts > 0 && Value.compare v c.value > 0) then
        bind t tbl k { value = v; ts }
    | exception Not_found -> if ts > 0 then bind t tbl k { value = v; ts })

let rec apply_ops t tbl = function
  | [] -> ()
  | op :: rest ->
    apply_op t tbl op;
    apply_ops t tbl rest

let apply t ops =
  apply_ops t (table t) ops;
  t.version <- t.version + 1

let read t keys = List.map (fun k -> (k, get t k)) keys
let size t = Str_tbl.length (table t)
let version t = t.version

(* Commutative sums over a per-binding hash: the table's iteration
   order cannot reach the result. *)
let sum f tbl =
  Str_tbl.fold (fun k c acc -> acc + f k c) tbl 0 (* repcheck: allow *)

let digest t = sum (fun k c -> Hashtbl.hash (k, c.value, c.ts)) (table t)

(* Freezes the handle's version and returns it; the handle moves to a
   fresh root whose writes record into the frozen node.  A handle that
   has not written since its last capture hands that capture out
   again. *)
let capture t =
  match t.parent with
  | Some p when Str_tbl.length t.recorded = 0 -> p
  | Some _ | None ->
    let tbl = table t in
    let frozen = t.node in
    let live = { data = Live tbl } in
    frozen.data <- Diff { undo = Nil; next = live };
    t.node <- live;
    t.parent <- Some frozen;
    Str_tbl.reset t.recorded;
    frozen

let snapshot t = { s_node = capture t; s_version = t.version }

let copy t =
  let base = capture t in
  make
    { data = Diff { undo = Nil; next = base } }
    ~parent:(Some base) ~version:t.version

(* A handle restored from a version gets a table of its own: two
   long-lived handles sharing one would undo each other's writes on
   every access. *)
let detached s = { data = Live (Str_tbl.copy (reroot s.s_node)) }

let restore t s =
  t.node <- detached s;
  t.parent <- None;
  Str_tbl.reset t.recorded;
  t.version <- s.s_version

let of_snapshot s = make (detached s) ~parent:None ~version:s.s_version

let snapshot_size s =
  64
  + sum
      (fun k c ->
        let vsize =
          match c.value with Value.Int _ -> 8 | Value.Text txt -> String.length txt
        in
        String.length k + vsize + 16)
      (reroot s.s_node)

let bindings t =
  Str_tbl.fold (fun k c acc -> (k, c.value) :: acc) (table t) [] (* repcheck: allow *)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %a@," k Value.pp v) (bindings t);
  Format.fprintf ppf "@]"
