type t = int

let compare = Int.compare
let equal = Int.equal
(* An id is an int, so it is its own hash: a lookup in a [Tbl] is one
   mask and one int compare, with no call into the polymorphic hash. *)
let hash (t : t) = t
let pp ppf t = Format.fprintf ppf "n%d" t
let to_string t = Format.asprintf "%a" pp t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let set_of_list l = Set.of_list l

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") pp)
    (Set.elements s)
