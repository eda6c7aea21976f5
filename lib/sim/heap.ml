(* A min-heap over two immediate-int keys (primary, tiebreak) with the
   payload alongside.  A heap compared through a [cmp] closure pays an
   indirect call per sift step, and for float or tuple keys a box per
   comparison.  The sim event loop orders timers by (due-time in µs,
   sequence), both immediate ints, so this heap compares inline and its
   pop returns the payload directly: zero allocation per event on the
   Fifo fast path. *)
module Keyed = struct
  type 'a t = {
    mutable keys : int array; (* primary key *)
    mutable tie : int array; (* tiebreak key *)
    mutable vals : 'a array;
    mutable size : int;
  }

  exception Empty

  let create () = { keys = [||]; tie = [||]; vals = [||]; size = 0 }
  let length t = t.size
  let is_empty t = t.size = 0

  let less t i j =
    t.keys.(i) < t.keys.(j)
    || (t.keys.(i) = t.keys.(j) && t.tie.(i) < t.tie.(j))

  let swap t i j =
    let k = t.keys.(i) and s = t.tie.(i) and v = t.vals.(i) in
    t.keys.(i) <- t.keys.(j);
    t.tie.(i) <- t.tie.(j);
    t.vals.(i) <- t.vals.(j);
    t.keys.(j) <- k;
    t.tie.(j) <- s;
    t.vals.(j) <- v

  let grow t v =
    let cap = Array.length t.keys in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nkeys = Array.make ncap 0 and ntie = Array.make ncap 0 in
      let nvals = Array.make ncap v in
      Array.blit t.keys 0 nkeys 0 t.size;
      Array.blit t.tie 0 ntie 0 t.size;
      Array.blit t.vals 0 nvals 0 t.size;
      t.keys <- nkeys;
      t.tie <- ntie;
      t.vals <- nvals
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t ~key ~tie v =
    grow t v;
    t.keys.(t.size) <- key;
    t.tie.(t.size) <- tie;
    t.vals.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let min_key t = if t.size = 0 then raise Empty else t.keys.(0)
  let min_tie t = if t.size = 0 then raise Empty else t.tie.(0)
  let peek t = if t.size = 0 then raise Empty else t.vals.(0)

  let pop t =
    if t.size = 0 then raise Empty;
    let top = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.tie.(0) <- t.tie.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      (* overwrite the freed slot with a live duplicate so the popped
         payload is not retained by the backing array *)
      t.vals.(t.size) <- t.vals.(0);
      sift_down t 0
    end;
    top

  let clear t =
    t.keys <- [||];
    t.tie <- [||];
    t.vals <- [||];
    t.size <- 0
end
