open Repro_net

(* The deterministic event scripts the model checker explores and
   replays.  A transition is everything that happens between two
   scheduling decisions: one coalesced delivery step at a node, one
   client submission, or one injected fault followed by the matching
   reconfiguration.  Scripts serialise one transition per line so a
   counterexample can be stored, minimized and re-run byte-for-byte. *)

type transition =
  | T_deliver of Node_id.t
      (** deliver the node's next event, coalescing view-change fallout
          (leftovers, transitional/regular notices) into the step *)
  | T_submit of Node_id.t  (** one client update at the node *)
  | T_crash of Node_id.t
  | T_recover of Node_id.t
  | T_partition of Node_id.t list list  (** install these components *)
  | T_merge  (** heal the network *)

let is_deliver = function T_deliver _ -> true | _ -> false

let equal (a : transition) (b : transition) = a = b

let to_line = function
  | T_deliver n -> Printf.sprintf "deliver %d" n
  | T_submit n -> Printf.sprintf "submit %d" n
  | T_crash n -> Printf.sprintf "crash %d" n
  | T_recover n -> Printf.sprintf "recover %d" n
  | T_partition groups ->
    "partition "
    ^ String.concat "|"
        (List.map
           (fun g -> String.concat "," (List.map string_of_int g))
           groups)
  | T_merge -> "merge"

let pp ppf t = Format.pp_print_string ppf (to_line t)

let of_line line =
  let line = String.trim line in
  match String.split_on_char ' ' line with
  | [ "merge" ] -> Some T_merge
  | [ "deliver"; n ] -> Some (T_deliver (int_of_string n))
  | [ "submit"; n ] -> Some (T_submit (int_of_string n))
  | [ "crash"; n ] -> Some (T_crash (int_of_string n))
  | [ "recover"; n ] -> Some (T_recover (int_of_string n))
  | [ "partition"; groups ] ->
    Some
      (T_partition
         (String.split_on_char '|' groups
         |> List.map (fun g ->
                String.split_on_char ',' g |> List.map int_of_string)))
  | _ -> None

let to_string script =
  String.concat "\n" (List.map to_line script) ^ "\n"

(* Lines starting with '#' carry replay metadata (node count, policy)
   and free-form comments. *)
let of_string s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match of_line line with
           | Some t -> Some t
           | None -> invalid_arg ("Script.of_string: bad line: " ^ line))
