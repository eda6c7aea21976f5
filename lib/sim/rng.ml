(* The 64-bit state lives in a byte buffer rather than a mutable int64
   field, which would box a fresh int64 on every draw; with [mix] and
   [bits64] inlined, a draw that returns an int or a bool allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

(* SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = create (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* 62 bits: always non-negative in OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

(* 53 uniform bits -> [0,1) *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.

let float t bound =
  if bound < 0. then invalid_arg "Rng.float: negative bound";
  unit_float t *. bound

(* [float t 1.0 < p], without boxing the drawn float for the caller. *)
let chance t p = unit_float t < p

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let uniform_span t max_span =
  let us = Time.to_us max_span in
  if us = 0 then Time.zero else Time.of_us (int t (us + 1))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
