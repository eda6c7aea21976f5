module Summary = struct
  type t = {
    mutable samples : float list;
    mutable sorted : float array option; (* cache, invalidated on add *)
    mutable count : int;
    mutable sum : float;
  }

  let create () = { samples = []; sorted = None; count = 0; sum = 0. }

  let add t x =
    t.samples <- x :: t.samples;
    t.sorted <- None;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x

  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count

  let count_at_most t x =
    List.fold_left (fun n s -> if s <= x then n + 1 else n) 0 t.samples

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
