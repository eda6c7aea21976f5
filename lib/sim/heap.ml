(* A min-heap over two immediate-int keys (primary, tiebreak).  The sim
   event loop orders events by (due-time in µs, sequence), both
   immediate ints, so the heap compares inline and its pop returns the
   payload directly: zero allocation per event.

   Sifting moves one hole: an entry in flight is held in locals and
   each level writes only the entry it passes, never a swap.  Entries
   are int triples (key, tie, slot) in three int arrays, and the
   payload sits still in a slot table, so a sift writes no pointer and
   pays no write barrier (moving the payload with the hole costs a
   [caml_modify] per level).  [slots] is a permutation of
   [0 .. capacity - 1]: positions below [size] hold the live entries'
   slots, positions from [size] on hold the free ones, so a push takes
   the slot at [size] and a pop leaves the root's slot there. *)
type 'a t = {
  mutable keys : int array; (* by heap position: primary key *)
  mutable ties : int array; (* by heap position: tiebreak key *)
  mutable slots : int array; (* by heap position: payload slot *)
  mutable vals : 'a array; (* by slot; a free slot holds [filler] *)
  mutable size : int;
  filler : 'a;
}

exception Empty

let create ~filler = { keys = [||]; ties = [||]; slots = [||]; vals = [||]; size = 0; filler }

let length t = t.size
let is_empty t = t.size = 0

(* Double the capacity.  Free slots hold the filler, so a popped
   payload is never kept reachable by the slot table. *)
let grow t =
  let cap = Array.length t.keys in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let keys = Array.make ncap 0 and ties = Array.make ncap 0 in
  let slots = Array.init ncap Fun.id and vals = Array.make ncap t.filler in
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.ties 0 ties 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  t.keys <- keys;
  t.ties <- ties;
  t.slots <- slots;
  t.vals <- vals
  (* Amortized: the capacity doubles, so each entry is copied O(1)
     times over the pushes that fill it. *)
  [@@analysis.cost "O(1); alloc O(1)"]

(* Moves the hole at [i] towards the root past every parent above
   (key, tie) and returns where the entry belongs.  The sifts take the
   arrays as arguments, so their [int] annotations are what keeps each
   comparison an inline int compare rather than a call to the
   polymorphic one. *)
let sift_up (keys : int array) (ties : int array) (slots : int array) ~(key : int)
    ~(tie : int) i =
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = keys.(p) in
    if key < pk || (key = pk && tie < ties.(p)) then begin
      keys.(!i) <- pk;
      ties.(!i) <- ties.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  !i
  (* One level per iteration: the depth is log2 of the queue. *)
  [@@analysis.cost "O(queue); alloc O(1)"]

(* Moves the hole at the root down past every smaller child among the
   first [n] positions and returns where (key, tie) belongs. *)
let sift_down (keys : int array) (ties : int array) (slots : int array) ~(key : int)
    ~(tie : int) n =
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && ties.(r) < ties.(l)))
        then r
        else l
      in
      let ck = keys.(c) in
      if ck < key || (ck = key && ties.(c) < tie) then begin
        keys.(!i) <- ck;
        ties.(!i) <- ties.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else moving := false
    end
  done;
  !i
  (* One level per iteration: the depth is log2 of the queue. *)
  [@@analysis.cost "O(queue); alloc O(1)"]

let push t ~key ~tie v =
  if t.size = Array.length t.keys then grow t;
  let n = t.size in
  let slot = t.slots.(n) in
  t.vals.(slot) <- v;
  let i = sift_up t.keys t.ties t.slots ~key ~tie n in
  t.keys.(i) <- key;
  t.ties.(i) <- tie;
  t.slots.(i) <- slot;
  t.size <- n + 1

let min_key t = if t.size = 0 then raise Empty else t.keys.(0)

let pop t =
  if t.size = 0 then raise Empty;
  let top = t.slots.(0) in
  let v = t.vals.(top) in
  t.vals.(top) <- t.filler;
  let n = t.size - 1 in
  t.size <- n;
  let key = t.keys.(n) and tie = t.ties.(n) and slot = t.slots.(n) in
  let i = sift_down t.keys t.ties t.slots ~key ~tie n in
  t.keys.(i) <- key;
  t.ties.(i) <- tie;
  t.slots.(i) <- slot;
  t.slots.(n) <- top;
  v
