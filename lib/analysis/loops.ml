(* The bound-class lattice and iteration vocabulary of the hot-path
   cost analysis (cost.ml).

   A cost summary is a *set* of bound classes — which system quantities
   a function's work (or allocation) is linear in — rather than a total
   order: [O(members+queue)] is a meaningful budget for an ack handler
   that both recomputes a safe index over the membership and drains the
   delivery queue.  The classes:

   - batch:   the function's own input data (a parameter collection, a
              message payload, a submission batch of [Op]s);
   - members: the view membership ([Node_id.Set]/[Map], state messages);
   - queue:   the ordered-action structures (action ids, pending action
              lists, delivery queues, timer heaps);
   - log:     the write-ahead log (frames, recovery spans);
   - Top:     no bound inferred (nested whole-collection scans,
              recursion, [while], data the tables cannot classify).

   Join is set union; Top absorbs.  A budget permits a set of classes,
   so a summary fits iff it is a subset and not Top.  The same masks
   describe allocation, with one extra bit: [alloc_const] marks
   constant-size allocation (a return record, a closure built once per
   call), which every budget tolerates — budgets constrain what is
   allocated *per element of a loop*, not the O(1) boxing every OCaml
   function performs.

   Everything in this module is pure string/int manipulation so the
   unit tests (test_analysis.ml) exercise the lattice, the budget
   grammar and the type-marker classification without loading cmts. *)

(* --- masks ------------------------------------------------------------ *)

let batch = 1
let members = 2
let queue = 4
let log_bound = 8
let top = 16
let alloc_const = 32

let const = 0
let is_top m = m land top <> 0
let join a b = a lor b

(* Does summary [m] fit within budget [b]?  [alloc_const] is always
   tolerated; Top fits nothing (and, as a budget, would permit
   anything — the grammar cannot spell it, deliberately). *)
let fits m b =
  (not (is_top m)) && m land lnot (b lor alloc_const) = 0

(* Fixed rendering order so messages and tables are deterministic. *)
let class_names =
  [ (batch, "batch"); (members, "members"); (queue, "queue");
    (log_bound, "log") ]

let to_string m =
  if is_top m then "Top"
  else
    match List.filter (fun (bit, _) -> m land bit <> 0) class_names with
    | [] -> "O(1)"
    | present ->
      "O(" ^ String.concat "+" (List.map snd present) ^ ")"

(* The class bits of [m], largest first — the ranking order of the
   --cost table (log > queue > members > batch). *)
let bits m =
  List.filter_map
    (fun (bit, _) -> if m land bit <> 0 then Some bit else None)
    (List.rev class_names)

(* --- the budget grammar ----------------------------------------------- *)

(* budget ::= work [ ";" "alloc" work ]
   work   ::= "O(" classes ")"
   classes::= "1" | class ("+" class)*
   class  ::= "batch" | "members" | "queue" | "log"

   "O(1)" is the empty set.  When the alloc clause is omitted the
   allocation budget defaults to the work budget (a members-bounded
   handler may build a members-sized structure, and any handler may do
   constant allocation). *)

let strip_spaces s =
  String.to_seq s
  |> Seq.filter (fun c -> c <> ' ' && c <> '\t')
  |> String.of_seq

let parse_classes s =
  if s = "1" then Some const
  else
    let parts = String.split_on_char '+' s in
    List.fold_left
      (fun acc part ->
        match acc with
        | None -> None
        | Some m -> (
          match
            List.find_opt (fun (_, n) -> n = part) class_names
          with
          | Some (bit, _) -> Some (m lor bit)
          | None -> None))
      (Some const) parts

let parse_work s =
  let n = String.length s in
  if n >= 3 && String.sub s 0 2 = "O(" && s.[n - 1] = ')' then
    parse_classes (String.sub s 2 (n - 3))
  else None

let parse_budget s =
  match String.split_on_char ';' (strip_spaces s) with
  | [ work ] -> (
    match parse_work work with
    | Some w -> Some (w, w)
    | None -> None)
  | [ work; alloc ] when Cmt_load.has_prefix "alloc" alloc -> (
    let alloc = String.sub alloc 5 (String.length alloc - 5) in
    match (parse_work work, parse_work alloc) with
    | Some w, Some a -> Some (w, a)
    | _ -> None)
  | _ -> None

(* --- type-marker classification --------------------------------------- *)

(* What a collection is *of* decides what its length is bounded by: a
   [state_msg array] is the membership however it was built, an
   [Action.Id.t list] is a queue segment.  The markers are substrings
   of the demangled type-constructor names appearing in the collection
   type, checked in priority order (log before queue before members
   before batch: a per-sender pending list mentions both [Node_id] and
   [Action], and the action bound is the one that grows). *)

let marker_table =
  [ (log_bound, [ "Wlog"; "frame" ]);
    (queue, [ "Action"; "timer"; "choice"; "Heap" ]);
    (members, [ "Node_id"; "state_msg"; "prim_component"; "vulnerable" ]);
    (batch, [ "Op"; "Value"; "payload" ]) ]

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
  in
  at 0

let classify_names names =
  List.find_map
    (fun (bit, markers) ->
      if
        List.exists
          (fun name ->
            List.exists (fun m -> contains_sub name m) markers)
          names
      then Some bit
      else None)
    marker_table

(* --- the iteration vocabulary ----------------------------------------- *)

(* Per canonical callee name: the position of the scanned collection
   among the positional arguments, and whether the primitive allocates
   a result proportional to it.  [scan_target] also recognizes the
   functorized spellings ("Set.Make.fold" for [Node_id.Set.fold],
   "Hashtbl.Make.iter" for [Node_id.Tbl.iter]) through their last
   components, which is how [Callgraph.canonical] spells them. *)

type scan = { sc_arg : int; sc_allocs : bool }

let sc arg allocs = Some { sc_arg = arg; sc_allocs = allocs }

let list_scans op =
  match op with
  | "iter" | "map" | "mapi" | "iteri" | "filter" | "filter_map"
  | "concat_map" | "rev_map" | "for_all" | "exists" | "find"
  | "find_opt" | "find_map" | "partition" | "sort" | "stable_sort"
  | "fast_sort" | "sort_uniq" | "mem" | "memq" | "assoc" | "assoc_opt"
  | "mem_assoc" | "remove_assoc" ->
    sc 1
      (match op with
      | "iter" | "iteri" | "for_all" | "exists" | "find" | "find_opt"
      | "find_map" | "mem" | "memq" | "assoc" | "assoc_opt" | "mem_assoc" ->
        false
      | _ -> true)
  | "init" -> sc 0 true (* the bound is the first argument *)
  | "fold_left" -> sc 2 false
  | "fold_right" -> sc 1 false
  | "length" -> sc 0 false
  | "rev" | "append" | "rev_append" | "concat" | "flatten" | "split"
  | "combine" | "of_seq" ->
    sc 0 true
  | "nth" | "nth_opt" -> sc 0 false
  | _ -> None

let array_scans op =
  match op with
  | "iter" | "map" | "mapi" | "iteri" | "for_all" | "exists" | "mem"
  | "sort" | "stable_sort" ->
    sc 1
      (match op with
      | "iter" | "iteri" | "for_all" | "exists" | "mem" -> false
      | _ -> true)
  | "init" | "make" -> sc 0 true (* the bound is the first argument *)
  | "fold_left" -> sc 2 false
  | "fold_right" -> sc 1 false
  | "to_list" | "of_list" | "copy" | "sub" | "append" | "concat" ->
    sc 0 true
  | _ -> None

let seq_scans op =
  match op with
  | "iter" | "iteri" -> sc 1 false
  | "fold_left" -> sc 2 false
  | "length" -> sc 0 false
  | _ -> None

let set_scans op =
  match op with
  | "iter" | "fold" | "map" | "filter" | "filter_map" | "for_all"
  | "exists" | "partition" ->
    sc 1
      (match op with
      | "iter" | "fold" | "for_all" | "exists" -> false
      | _ -> true)
  | "elements" | "to_list" | "of_list" | "cardinal" | "union" | "inter"
  | "diff" | "subset" | "equal" | "compare" ->
    sc 0
      (match op with
      | "cardinal" | "subset" | "equal" | "compare" -> false
      | _ -> true)
  | _ -> None

let map_scans op =
  match op with
  | "iter" | "fold" | "map" | "mapi" | "filter" | "filter_map"
  | "for_all" | "exists" | "partition" | "merge" | "union" ->
    sc 1
      (match op with
      | "iter" | "fold" | "for_all" | "exists" -> false
      | _ -> true)
  | "bindings" | "to_list" | "of_list" | "cardinal" | "equal" | "compare" ->
    sc 0 (op = "bindings" || op = "to_list" || op = "of_list")
  | _ -> None

let hashtbl_scans op =
  match op with
  | "iter" -> sc 1 false
  | "fold" -> sc 1 false
  | "copy" | "to_seq" -> sc 0 true
  | _ -> None

let string_scans op =
  match op with
  | "concat" -> sc 1 true
  | "split_on_char" -> sc 1 true
  | "map" | "iter" -> sc 1 (op = "map")
  | _ -> None

let scan_target canonical =
  match List.rev (String.split_on_char '.' canonical) with
  | [ "@" ] -> sc 0 true
  | [ op; "List" ] -> list_scans op
  | [ op; "Array" ] -> array_scans op
  | [ op; "Seq" ] -> seq_scans op
  | [ op; "String" ] -> string_scans op
  | [ op; "Hashtbl" ] | op :: "Make" :: "Hashtbl" :: _ -> hashtbl_scans op
  | op :: "Set" :: _ | op :: "Make" :: "Set" :: _ -> set_scans op
  | op :: "Map" :: _ | op :: "Make" :: "Map" :: _ -> map_scans op
  | _ -> None

(* Constant-size allocation builders that are not otherwise scans. *)
let alloc_prims =
  [ "^"; "ref"; "String.make"; "String.sub"; "Bytes.create"; "Bytes.make";
    "Bytes.sub"; "Printf.sprintf"; "Format.sprintf"; "Format.asprintf";
    "Buffer.create"; "Buffer.contents" ]

(* --- annotation hygiene ------------------------------------------------ *)

(* A trusted [@@analysis.cost] summary that no [@@analysis.hotpath]
   root reaches constrains nothing: the waiver would silently survive a
   refactor that removed the hot path it was written for.  Pure
   reachability over the reference graph so the check (and its unit
   test) needs no cmts; mirrors Globals.stale_suppressions. *)
let stale_trusted ~roots ~refs ~trusted =
  let reached = Callgraph.reachable ~succ:refs roots in
  List.filter (fun key -> not (List.mem key reached)) trusted
