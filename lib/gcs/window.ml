module Below = Map.Make (Int)

(* Ring keys are the keys in (base, top]; key k lives in slot
   [k land (capacity - 1)], and [top - base] never exceeds the
   capacity, so no two ring keys share a slot. *)
type 'a t = {
  mutable base : int;
  mutable top : int; (* highest ring key ever held, >= base *)
  mutable slots : 'a array; (* capacity zero or a power of two *)
  mutable used : Bytes.t; (* nonzero where the slot holds a key *)
  mutable filler : 'a array; (* [| the first value ever stored |] *)
  mutable below : 'a Below.t; (* keys at or below [base] *)
  mutable length : int;
}

let create () =
  {
    base = 0;
    top = 0;
    slots = [||];
    used = Bytes.empty;
    filler = [||];
    below = Below.empty;
    length = 0;
  }

let length t = t.length
let base t = t.base
let slot t k = k land (Array.length t.slots - 1)
let held t k = k <= t.top && Bytes.get t.used (slot t k) <> '\000'

let mem t k = if k <= t.base then Below.mem k t.below else held t k

let find t k =
  if k <= t.base then Below.find k t.below
  else if held t k then t.slots.(slot t k)
  else raise Not_found

let clear_slot t k =
  let i = slot t k in
  Bytes.set t.used i '\000';
  t.slots.(i) <- t.filler.(0);
  t.length <- t.length - 1

(* Double until key [k] fits, re-placing the ring keys.  Amortized
   O(1): the capacity doubles, so each copied slot is paid for by the
   insertion that widened the span. *)
let grow t k v =
  if Array.length t.filler = 0 then t.filler <- [| v |];
  let cap = ref (max 16 (Array.length t.slots)) in
  while k - t.base > !cap do
    cap := 2 * !cap
  done;
  let slots = Array.make !cap t.filler.(0) and used = Bytes.make !cap '\000' in
  for key = t.base + 1 to t.top do
    if held t key then begin
      let i = key land (!cap - 1) in
      slots.(i) <- find t key;
      Bytes.set used i '\001'
    end
  done;
  t.slots <- slots;
  t.used <- used
  [@@analysis.cost "O(1); alloc O(1)"]

let replace t k v =
  if k <= t.base then begin
    if not (Below.mem k t.below) then t.length <- t.length + 1;
    t.below <- Below.add k v t.below
  end
  else begin
    if k - t.base > Array.length t.slots then grow t k v;
    let i = slot t k in
    if Bytes.get t.used i = '\000' then begin
      Bytes.set t.used i '\001';
      t.length <- t.length + 1
    end;
    t.slots.(i) <- v;
    if k > t.top then t.top <- k
  end

(* The base walks over each key value once: amortized O(1) per key. *)
let rec advance t =
  if t.base < t.top && not (held t (t.base + 1)) then begin
    t.base <- t.base + 1;
    advance t
  end
  [@@analysis.cost "O(1); alloc O(1)"]

let remove t k =
  if k <= t.base then begin
    if Below.mem k t.below then begin
      t.length <- t.length - 1;
      t.below <- Below.remove k t.below
    end
  end
  else if held t k then clear_slot t k;
  advance t

(* Each dropped key was inserted once: amortized one clear per key. *)
let slide t n =
  if n > t.base then begin
    for k = t.base + 1 to min n t.top do
      if held t k then clear_slot t k
    done;
    t.base <- n;
    if t.top < n then t.top <- n
  end
  [@@analysis.cost "O(queue); alloc O(1)"]

let fold f t acc =
  let acc = ref (Below.fold f t.below acc) in
  for k = t.base + 1 to t.top do
    if held t k then acc := f k t.slots.(slot t k) !acc
  done;
  !acc
