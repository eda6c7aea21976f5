type 'a t = {
  mutable data : 'a array; (* capacity is zero or a power of two *)
  mutable head : int;
  mutable length : int;
  mutable filler : 'a array; (* [| the first element ever pushed |] *)
}

let create () = { data = [||]; head = 0; length = 0; filler = [||] }
let length t = t.length
let is_empty t = t.length = 0

(* Double the capacity, unrolling the live elements to the front.  Free
   slots hold the filler, so a popped element is never kept reachable
   by the buffer (an element that outlives its stay in the ring gets
   promoted, and costs the major heap). *)
let grow t x =
  if Array.length t.filler = 0 then t.filler <- [| x |];
  let cap = Array.length t.data in
  let ndata = Array.make (if cap = 0 then 8 else 2 * cap) t.filler.(0) in
  let first = min t.length (cap - t.head) in
  Array.blit t.data t.head ndata 0 first;
  Array.blit t.data 0 ndata first (t.length - first);
  t.data <- ndata;
  t.head <- 0

let push t x =
  if t.length = Array.length t.data then grow t x;
  t.data.((t.head + t.length) land (Array.length t.data - 1)) <- x;
  t.length <- t.length + 1
  (* Amortized: the buffer doubles, so each element is copied O(1) times. *)
  [@@analysis.cost "O(1); alloc O(1)"]

let pop t =
  if t.length = 0 then invalid_arg "Ring.pop: empty";
  let x = t.data.(t.head) in
  t.data.(t.head) <- t.filler.(0);
  t.head <- (t.head + 1) land (Array.length t.data - 1);
  t.length <- t.length - 1;
  x

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.length <- 0
