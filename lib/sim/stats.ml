module Summary = struct
  type t = {
    mutable samples : float list;
    mutable sorted : float array option; (* cache, invalidated on add *)
    mutable count : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    {
      samples = [];
      sorted = None;
      count = 0;
      sum = 0.;
      sumsq = 0.;
      min = infinity;
      max = neg_infinity;
    }

  let add t x =
    t.samples <- x :: t.samples;
    t.sorted <- None;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count

  let stddev t =
    if t.count < 2 then 0.
    else
      let n = float_of_int t.count in
      let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.) in
      sqrt (Float.max var 0.)

  let min t = t.min
  let max t = t.max

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Array.of_list t.samples in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let a = sorted t in
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.of_int (int_of_float rank)) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
    end

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f"
        t.count (mean t) (percentile t 50.) (percentile t 99.) t.min t.max
end

module Timeline = struct
  type t = { bucket : Time.t; counts : (int, int ref) Hashtbl.t }

  let create ~bucket =
    if Time.(bucket <= Time.zero) then invalid_arg "Timeline.create: bucket must be positive";
    { bucket; counts = Hashtbl.create 64 }

  let record t ~at =
    let idx = Time.to_us at / Time.to_us t.bucket in
    match Hashtbl.find_opt t.counts idx with
    | Some r -> incr r
    | None -> Hashtbl.add t.counts idx (ref 1)

  let buckets t =
    Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (idx, n) -> (Time.of_us (idx * Time.to_us t.bucket), n))

  let rates t =
    let secs = Time.to_sec t.bucket in
    buckets t
    |> List.map (fun (start, n) -> (Time.to_sec start, float_of_int n /. secs))
end
