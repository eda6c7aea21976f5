(* One mutable open-addressing table per version tree, with O(1)
   snapshots by Baker's rerooting trick (as in Conchon & Filliâtre's
   persistent arrays, 2007).  Every version is a [node]; exactly one
   node of a tree, the root, is [Live] and owns the table, and every
   other node is a [Diff] whose undo list, replayed against the next
   node's version, gives its own.  Reading a version first reroots the
   tree at it, inverting the undo lists on the path.

   A handle writes its own node in place.  Capturing a handle
   ([snapshot], [copy]) freezes that node and moves the handle to a
   fresh root under a fresh stamp; until the next capture, the first
   write of each key saves its old binding in the frozen node and stamps
   the key's slot.  A slot's [meta] is 0 while unused, else the key's
   hash (bits 2..31), state (bits 0..1) and stamp; a removed key keeps
   its slot, [dead], until a rebuild drops it. *)
type table = {
  mutable keys : string array;
  mutable vals : Value.t array;
  mutable tss : int array;
  mutable meta : int array;
  mutable live : int;  (* bound slots *)
  mutable used : int;  (* bound and dead slots *)
  mutable stamps : int;  (* the last stamp handed out in this tree *)
}

let bound = 1
let dead = 2
let state m = m land 3
let hash_of m = (m lsr 2) land 0x3FFF_FFFF
let no_value = Value.Int 0

let limit cap = cap - (cap / 8)

let empty_table cap =
  let keys = Array.make cap "" and vals = Array.make cap no_value in
  let tss = Array.make cap 0 and meta = Array.make cap 0 in
  { keys; vals; tss; meta; live = 0; used = 0; stamps = 0 }

(* Stamps fill the 31 bits above the hash: 2^31 captures per tree. *)
let next_stamp tb =
  if tb.stamps = 0x7FFF_FFFF then failwith "Database: capture stamps exhausted";
  tb.stamps <- tb.stamps + 1;
  tb.stamps

(* The slot of [k], bound or dead, or [-1 - j] for the empty slot [j]
   that ends its probe path.  Triangular probing visits every slot of a
   power-of-two table. *)
let rec probe tb k h i step =
  let m = tb.meta.(i) in
  if m = 0 then -1 - i
  else if hash_of m = h && String.equal tb.keys.(i) k then i
  else probe tb k h ((i + step) land (Array.length tb.meta - 1)) (step + 1)
  (* [make_room] keeps at most 7/8 of the slots used, so under uniform hashing
     a miss expects at most 1/(1 - 7/8) = 8 steps and a hit (8/7) ln 8 < 2.4. *)
  [@@analysis.cost "O(1); alloc O(1)"]

let find tb k h = probe tb k h (h land (Array.length tb.meta - 1)) 1
let is_bound tb i = i >= 0 && state tb.meta.(i) = bound

(* Binds [k] in slot [i] as [find] returned it; a new slot takes
   [stamp], an existing one keeps its own.  The caller made room. *)
let set_slot tb k h i ~stamp v ts =
  let i =
    if i >= 0 then i
    else begin
      tb.used <- tb.used + 1;
      tb.keys.(-1 - i) <- k;
      tb.meta.(-1 - i) <- (stamp lsl 32) lor (h lsl 2) lor dead;
      -1 - i
    end
  in
  if state tb.meta.(i) = dead then begin
    tb.meta.(i) <- tb.meta.(i) lxor 3 (* bound <-> dead *);
    tb.live <- tb.live + 1
  end;
  tb.vals.(i) <- v;
  tb.tss.(i) <- ts

let unbind tb i =
  if is_bound tb i then begin
    tb.meta.(i) <- tb.meta.(i) lxor 3 (* bound <-> dead *);
    tb.vals.(i) <- no_value;
    tb.live <- tb.live - 1
  end

(* Makes room for a new key: once bound and dead slots fill 7/8 of the
   table, moves the bound ones into fresh arrays, twice as many if the
   live keys fill more than half the load limit. *)
let make_room tb =
  let n = Array.length tb.meta in
  if tb.used >= limit n then begin
    let nt = empty_table (if tb.live > limit n / 2 then 2 * n else n) in
    Array.iteri
      (fun i m ->
        if state m = bound then
          let k = tb.keys.(i) and h = hash_of m in
          set_slot nt k h (find nt k h) ~stamp:(m lsr 32) tb.vals.(i) tb.tss.(i))
      tb.meta;
    tb.keys <- nt.keys;
    tb.vals <- nt.vals;
    tb.tss <- nt.tss;
    tb.meta <- nt.meta;
    tb.used <- tb.live
  end
  (* Amortized O(1) per insert: a rebuild leaves half the load limit
     free, and the inserts that fill it pay for the next one. *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* Old bindings, replayed in list order. *)
type undo = Nil | Bound of string * Value.t * int * undo | Unbound of string * undo

(* [k]'s binding in slot [i], as an undo entry in front of [rest]. *)
let saved tb i k rest =
  if is_bound tb i then Bound (k, tb.vals.(i), tb.tss.(i), rest) else Unbound (k, rest)

type node = { mutable data : data }

and data =
  | Live of table  (* the root: the table is this version *)
  | Diff of { mutable undo : undo; next : node }
      (* this version is [next]'s with [undo] replayed *)

type snapshot = { s_node : node; s_version : int }

type t = {
  mutable node : node;
  mutable parent : node option;
      (* the last capture: while [node] is the root, a [Diff] into it
         that holds the old binding of every key written since *)
  mutable stamp : int;  (* a slot with this stamp has its key in [parent] *)
  mutable wrote : bool;  (* this handle saved a binding in [parent] *)
  mutable version : int;
  mutable trace : (string -> unit) option;
      (* key-read observer, installed by the executor around a stored
         procedure so the runtime footprint validator sees the actual
         read set; [None] on the hot path *)
}

(* Replays [undo] against [tb] and returns the inverse undo list.  A
   replayed slot keeps its stamp, which still names the capture that
   saved its key; a new slot gets stamp 0, which no capture holds. *)
let rec revert tb undo inv =
  match undo with
  | Nil -> inv
  | Bound (k, _, _, rest) | Unbound (k, rest) ->
    make_room tb;
    let h = Hashtbl.hash k in
    let i = find tb k h in
    let inv = saved tb i k inv in
    (match undo with
    | Bound (_, v, ts, _) -> set_slot tb k h i ~stamp:0 v ts
    | Nil | Unbound _ -> unbind tb i);
    revert tb rest inv

(* Makes [n] the root of its tree and returns the table. *)
let rec reroot n =
  match n.data with
  | Live tb -> tb
  | Diff d ->
    let tb = reroot d.next in
    d.next.data <- Diff { undo = revert tb d.undo Nil; next = n };
    n.data <- Live tb;
    tb
  (* A handle's own node is the root except after an old version of its
     tree was read, so on the apply and checkpoint paths this returns at
     once.  A walk back replays the undo entries the excursion replayed:
     the excursion's caller paid for them (an O(keys) [of_snapshot] or
     [restore], or a copy's own writes). *)
  [@@analysis.cost "O(1); alloc O(1)"]

let table t = match t.node.data with Live tb -> tb | Diff _ -> reroot t.node

let make tb node ~parent ~version =
  { node; parent; stamp = next_stamp tb; wrote = false; version; trace = None }

let create () =
  let tb = empty_table 16 in
  make tb { data = Live tb } ~parent:None ~version:0

let set_trace t f = t.trace <- f

let slot t k =
  (match t.trace with Some f -> f k | None -> ());
  find (table t) k (Hashtbl.hash k)

let get t k =
  let i = slot t k in
  if is_bound (table t) i then Some (table t).vals.(i) else None

let timestamp t k =
  let i = slot t k in
  if is_bound (table t) i then (table t).tss.(i) else 0

(* The first write of a key since the last capture saves its old
   binding in the captured node and stamps the slot; [t.node] is the
   root here.  A key without a slot is always saved. *)
let record t tb i k =
  if i < 0 || tb.meta.(i) lsr 32 <> t.stamp then begin
    (match t.parent with
    | Some { data = Diff d } ->
      d.undo <- saved tb i k d.undo;
      t.wrote <- true
    | Some { data = Live _ } | None -> ());
    if i >= 0 then tb.meta.(i) <- (tb.meta.(i) land 0xFFFF_FFFF) lor (t.stamp lsl 32)
  end

let bind t tb k h i v ts =
  record t tb i k;
  set_slot tb k h i ~stamp:t.stamp v ts

(* Key-class separation (paper §6, and the pairwise law op.mli
   states): a key written through [Set_if_newer] carries ts > 0 and is
   a last-writer-wins register; a key written through [Add] is a counter
   and keeps ts = 0.  An [Add] against a register key is dropped, a
   [Set_if_newer] never beats the ts-0 sentinel, and equal-timestamp
   register writes resolve by value order — so any interleaving of
   commutative ops converges to the same state.  Each op finds its key's
   slot once. *)
let apply_op t tb op =
  make_room tb;
  let k = Op.key op in
  let h = Hashtbl.hash k in
  let i = find tb k h in
  let present = is_bound tb i in
  let ts = if present then tb.tss.(i) else 0 in
  match op with
  | Op.Set (_, v) -> bind t tb k h i v ts
  | Op.Add (_, n) when ts <= 0 ->
    let old = if present then tb.vals.(i) else no_value in
    let v = match old with Value.Int v -> v | Value.Text _ -> 0 in
    bind t tb k h i (Value.Int (v + n)) ts
  | Op.Add _ -> () (* register key: counter op dropped *)
  | Op.Remove _ ->
    if present then record t tb i k;
    unbind tb i
  | Op.Set_if_newer (_, v, nts) ->
    if nts > ts || (nts = ts && present && ts > 0 && Value.compare v tb.vals.(i) > 0)
    then bind t tb k h i v nts

let rec apply_ops t tb = function
  | [] -> ()
  | op :: rest ->
    apply_op t tb op;
    apply_ops t tb rest

let apply t ops =
  apply_ops t (table t) ops;
  t.version <- t.version + 1

let read t keys = List.map (fun k -> (k, get t k)) keys
let size t = (table t).live
let version t = t.version

(* Folds over the bound slots; callers sum or sort, so slot order is moot. *)
let fold f tb acc =
  let acc = ref acc in
  Array.iteri
    (fun i m -> if state m = bound then acc := f tb.keys.(i) tb.vals.(i) tb.tss.(i) !acc)
    tb.meta;
  !acc

let digest t = fold (fun k v ts acc -> acc + Hashtbl.hash (k, v, ts)) (table t) 0

let rebase t tb node ~parent =
  t.node <- node;
  t.parent <- parent;
  t.stamp <- next_stamp tb;
  t.wrote <- false

(* Freezes the handle's version and returns it; the handle moves to a
   fresh root whose writes record into the frozen node.  A handle that
   has saved nothing since its last capture ([wrote]: the capture's undo
   list may hold another handle's reroot) hands that capture out again. *)
let capture t =
  match t.parent with
  | Some p when not t.wrote -> p
  | Some _ | None ->
    let tb = table t in
    let frozen = t.node and live = { data = Live tb } in
    frozen.data <- Diff { undo = Nil; next = live };
    rebase t tb live ~parent:(Some frozen);
    frozen

let snapshot t = { s_node = capture t; s_version = t.version }

let copy t =
  let base = capture t in
  make (table t) { data = Diff { undo = Nil; next = base } } ~parent:(Some base)
    ~version:t.version

(* A handle restored from a version gets a table of its own: two
   long-lived handles sharing one would undo each other's writes on
   every access.  The copy keeps the stamps and their counter. *)
let detached s =
  let tb = reroot s.s_node in
  let keys = Array.copy tb.keys and vals = Array.copy tb.vals in
  { tb with keys; vals; tss = Array.copy tb.tss; meta = Array.copy tb.meta }

let restore t s =
  let tb = detached s in
  rebase t tb { data = Live tb } ~parent:None;
  t.version <- s.s_version

let of_snapshot s =
  let tb = detached s in
  make tb { data = Live tb } ~parent:None ~version:s.s_version

let snapshot_size s =
  let vsize = function Value.Int _ -> 8 | Value.Text txt -> String.length txt in
  fold (fun k v _ acc -> acc + String.length k + vsize v + 16) (reroot s.s_node) 64

let bindings t =
  fold (fun k v _ acc -> (k, v) :: acc) (table t) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
