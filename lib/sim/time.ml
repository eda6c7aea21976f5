type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Time.of_us: negative";
  n

let of_ms x = of_us (int_of_float (Float.round (x *. 1_000.)))
let of_sec x = of_us (int_of_float (Float.round (x *. 1_000_000.)))
let to_us t = t
let to_ms t = float_of_int t /. 1_000.
let to_sec t = float_of_int t /. 1_000_000.
let add t ~span = t + span

let diff a b =
  if b > a then invalid_arg "Time.diff: negative result";
  a - b

let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let ( >= ) (a : t) b = a >= b
let ( > ) (a : t) b = a > b
let min (a : t) b = Stdlib.min a b

let scale t f =
  if Stdlib.( < ) f 0. then invalid_arg "Time.scale: negative factor";
  int_of_float (Float.round (float_of_int t *. f))

let pp ppf t = Format.fprintf ppf "%.3fs" (to_sec t)
