type t = int

let compare = Int.compare
let equal = Int.equal
(* An id is an int, so it is its own hash: a lookup in a [Tbl] is one
   mask and one int compare, with no call into the polymorphic hash. *)
let hash (t : t) = t
let to_string t = "n" ^ string_of_int t
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let set_of_list l = Set.of_list l

let set_to_string s =
  "{" ^ String.concat "," (List.map to_string (Set.elements s)) ^ "}"

let pp_set ppf s = Format.pp_print_string ppf (set_to_string s)
