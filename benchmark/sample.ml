(* Bench-local statistics.

   A percentile is read only where the sample supports it: at least ten
   samples must lie beyond it.  Asked for a higher one (a "p999" of
   2,000 samples), [percentile] gives the highest supported one and says
   which it is; a sample of ten or fewer supports none.  Every reported
   percentile carries the sample count it was read from. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest value with at least [p]% of
   the sample at or below it, or the highest percentile with ten samples
   beyond it when [p] has fewer.  Gives the value and the percentile it
   is. *)
let percentile_at t p =
  let a = sorted t in
  let n = Array.length a in
  if n <= 10 then None
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    let i = max 0 (min (n - 11) (rank - 1)) in
    Some (a.(i), if i = rank - 1 then p else 100. *. float_of_int (i + 1) /. float_of_int n)

let percentile t p = Option.map fst (percentile_at t p)

let maximum t =
  if t.n = 0 then None
  else Some (Array.fold_left Float.max Float.neg_infinity (Array.sub t.data 0 t.n))

let mean t =
  if t.n = 0 then None
  else begin
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    Some (!s /. float_of_int t.n)
  end

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spreads
   reported here and by any external check agree. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  match ld with
  | 0 -> invalid_arg "Sample.quartiles: empty"
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
