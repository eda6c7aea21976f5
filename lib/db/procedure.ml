type result = { updates : Op.t list; output : Value.t }
type body = Database.t -> Value.t list -> result

type key_pattern =
  | Kconst of string
  | Kparam of int
  | Kconcat of key_pattern list
  | Kany

type footprint = { reads : key_pattern list; writes : key_pattern list }
type entry = { body : body; declared : footprint option }

(* One registry per engine instance: procedures are part of a replica's
   configuration, not of the process.  (The process-wide table that
   used to live here was the ambient-state analysis's first real
   finding — two engines in one process observed each other's
   [register] calls; a fixture pins that pre-fix finding.) *)
type registry = entry Str_tbl.t

let create () : registry = Str_tbl.create 16

let register ?footprint (reg : registry) name body =
  Str_tbl.replace reg name { body; declared = footprint }

let find (reg : registry) name =
  match Str_tbl.find reg name with
  | e -> Some e.body
  | exception Not_found -> None

let declared_footprint (reg : registry) name =
  match Str_tbl.find reg name with
  | e -> e.declared
  | exception Not_found -> None

let known (reg : registry) =
  (* repcheck: allow — result is sorted, iteration order irrelevant *)
  List.sort String.compare (Str_tbl.fold (fun k _ acc -> k :: acc) reg [])

let value_to_key = function
  | Value.Text s -> s
  | Value.Int n -> string_of_int n

let rec concretize args = function
  | Kconst s -> Some s
  | Kparam i -> (
    match List.nth_opt args i with
    | Some v -> Some (value_to_key v)
    | None -> None)
  | Kconcat parts ->
    List.fold_left
      (fun acc p ->
        match (acc, concretize args p) with
        | Some a, Some b -> Some (a ^ b)
        | _ -> None)
      (Some "") parts
  | Kany -> None

let pattern_matches args pat key =
  match pat with Kany -> true | _ -> concretize args pat = Some key

let covers args pats key = List.exists (fun p -> pattern_matches args p key) pats

let int_of = function Value.Int n -> n | Value.Text _ -> 0

let transfer db = function
  | [ Value.Text from_acct; Value.Text to_acct; Value.Int amount ] ->
    let balance =
      match Database.get db from_acct with Some (Value.Int b) -> b | _ -> 0
    in
    if balance >= amount && amount >= 0 then
      {
        updates = [ Op.Add (from_acct, -amount); Op.Add (to_acct, amount) ];
        output = Value.Int 1;
      }
    else { updates = []; output = Value.Int 0 }
  | _ -> { updates = []; output = Value.Int 0 }

let restock db = function
  | [ Value.Text item; Value.Int n ] ->
    let level =
      match Database.get db item with Some (Value.Int l) -> l | _ -> 0
    in
    { updates = [ Op.Add (item, n) ]; output = Value.Int (level + n) }
  | _ -> { updates = []; output = Value.Int 0 }

let cas db = function
  | [ Value.Text key; expected; desired ] ->
    let matches =
      match Database.get db key with
      | Some v -> Value.equal v expected
      | None -> int_of expected = 0 && Value.equal expected (Value.Int 0)
    in
    if matches then
      { updates = [ Op.Set (key, desired) ]; output = Value.Int 1 }
    else { updates = []; output = Value.Int 0 }
  | _ -> { updates = []; output = Value.Int 0 }

let builtins () =
  let reg = create () in
  register reg "transfer" transfer
    ~footprint:{ reads = [ Kparam 0 ]; writes = [ Kparam 0; Kparam 1 ] };
  register reg "restock" restock
    ~footprint:{ reads = [ Kparam 0 ]; writes = [ Kparam 0 ] };
  register reg "cas" cas
    ~footprint:{ reads = [ Kparam 0 ]; writes = [ Kparam 0 ] };
  reg
