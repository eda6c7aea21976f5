type t = {
  mutable group_of : int Node_id.Map.t; (* node -> component label *)
  mutable labels : int array; (* [group_of] by node id; -1 for no node *)
  mutable next_label : int;
  mutable epoch : int;
}

(* The network asks for two labels per message it sends and per message
   it delivers, so [label] reads an array that mirrors [group_of],
   indexed by the id's own int ([Node_id.hash]) and rebuilt on every
   connectivity change. *)
let set_groups t group_of =
  t.group_of <- group_of;
  let size =
    Node_id.Map.fold (fun n _ size -> Int.max size (Node_id.hash n + 1)) group_of 0
  in
  let labels = Array.make size (-1) in
  Node_id.Map.iter
    (fun n g -> if Node_id.hash n >= 0 then labels.(Node_id.hash n) <- g)
    group_of;
  t.labels <- labels

let create ~nodes =
  let t = { group_of = Node_id.Map.empty; labels = [||]; next_label = 1; epoch = 0 } in
  set_groups t (List.fold_left (fun m n -> Node_id.Map.add n 0 m) Node_id.Map.empty nodes);
  t

let nodes t = List.map fst (Node_id.Map.bindings t.group_of)

let label t n =
  let i = Node_id.hash n in
  if i >= 0 && i < Array.length t.labels && t.labels.(i) >= 0 then t.labels.(i)
  else invalid_arg (Format.asprintf "Topology: unknown node %a" Node_id.pp n)

let connected t a b = Node_id.equal a b || label t a = label t b

let component_of t n =
  let g = label t n in
  Node_id.Map.fold
    (fun node g' acc -> if g' = g then Node_id.Set.add node acc else acc)
    t.group_of Node_id.Set.empty

let components t =
  let by_label = Hashtbl.create 8 in
  Node_id.Map.iter
    (fun node g ->
      let cur =
        match Hashtbl.find_opt by_label g with
        | Some s -> s
        | None -> Node_id.Set.empty
      in
      Hashtbl.replace by_label g (Node_id.Set.add node cur))
    t.group_of;
  Hashtbl.fold (fun _ s acc -> s :: acc) by_label []
  |> List.sort (fun a b -> Node_id.compare (Node_id.Set.min_elt a) (Node_id.Set.min_elt b))

let fresh_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let partition t groups =
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun n ->
         if Hashtbl.mem seen n then
           invalid_arg "Topology.partition: node listed twice";
         Hashtbl.add seen n ()))
    groups;
  (* Split any unlisted node away from listed ones: unlisted nodes keep
     their current label only relative to other unlisted nodes; relabel
     listed groups with fresh labels. *)
  let group_of =
    List.fold_left
      (fun m group ->
        let l = fresh_label t in
        List.fold_left
          (fun m n ->
            ignore (label t n);
            Node_id.Map.add n l m)
          m group)
      t.group_of groups
  in
  set_groups t group_of;
  t.epoch <- t.epoch + 1

let merge_all t =
  let l = fresh_label t in
  set_groups t (Node_id.Map.map (fun _ -> l) t.group_of);
  t.epoch <- t.epoch + 1

let merge t witnesses =
  match witnesses with
  | [] -> ()
  | first :: _ ->
    let labels = List.map (label t) witnesses in
    let target = label t first in
    set_groups t
      (Node_id.Map.map (fun g -> if List.mem g labels then target else g) t.group_of);
    t.epoch <- t.epoch + 1

let add_node t n =
  if Node_id.Map.mem n t.group_of then invalid_arg "Topology.add_node: exists";
  let target =
    match components t with
    | [] -> fresh_label t
    | comps ->
      let largest =
        List.fold_left
          (fun best c ->
            if Node_id.Set.cardinal c > Node_id.Set.cardinal best then c else best)
          (List.hd comps) comps
      in
      label t (Node_id.Set.min_elt largest)
  in
  set_groups t (Node_id.Map.add n target t.group_of);
  t.epoch <- t.epoch + 1

let isolate t n =
  ignore (label t n);
  set_groups t (Node_id.Map.add n (fresh_label t) t.group_of);
  t.epoch <- t.epoch + 1

let epoch t = t.epoch

(* Canonical digest of the connectivity: components as sorted member
   lists, sorted by minimum element.  Labels themselves are arbitrary
   (fresh_label churns them), so two topologies with the same grouping
   fingerprint identically regardless of mutation history. *)
let fingerprint t =
  components t
  |> List.map (fun c ->
         Node_id.Set.elements c
         |> List.map (Format.asprintf "%a" Node_id.pp)
         |> String.concat ",")
  |> String.concat "|"
