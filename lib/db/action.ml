open Repro_net

module Id = struct
  type t = { server : Node_id.t; index : int }

  let compare a b =
    let c = Node_id.compare a.server b.server in
    if c <> 0 then c else Int.compare a.index b.index

  let equal a b = Node_id.equal a.server b.server && Int.equal a.index b.index

  (* No tuple is built and no polymorphic hash is called: a lookup in a
     [Tbl] allocates nothing.  A creator's live ids are a run of
     consecutive indices, so the server term must scatter the runs over
     the table's low bits: a large odd multiplier does, where a small
     one (65,599 is 63 modulo every table size up to 2^16) stacks every
     creator's run within a few dozen buckets of the others'. *)
  let hash t = (Node_id.hash t.server * 0x9E3779B1) + t.index
  let to_string t = Node_id.to_string t.server ^ "#" ^ string_of_int t.index
  let pp ppf t = Format.pp_print_string ppf (to_string t)

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

type kind =
  | Query of string list
  | Update of Op.t list
  | Read_write of string list * Op.t list
  | Active of { proc : string; args : Value.t list }
  | Interactive of {
      expected : (string * Value.t option) list;
      updates : Op.t list;
    }
  | Join of Node_id.t
  | Leave of Node_id.t

type semantics = Strict | Commutative

type t = {
  id : Id.t;
  client : int;
  kind : kind;
  semantics : semantics;
  green_count : int;
  size : int;
  req_seq : int;
  req_ack : int;
}

let make ?(client = 0) ?(semantics = Strict) ?(green_count = 0) ?(size = 200)
    ?(req_seq = 0) ?(req_ack = 0) ~server ~index kind =
  {
    id = { Id.server; index };
    client;
    kind;
    semantics;
    green_count;
    size;
    req_seq;
    req_ack;
  }

type response =
  | Committed of (string * Value.t option) list
  | Procedure_output of Value.t
  | Aborted
  | Busy

let kind_to_string = function
  | Query keys -> "query[" ^ String.concat "," keys ^ "]"
  | Update ops -> "update[" ^ string_of_int (List.length ops) ^ " ops]"
  | Read_write (keys, ops) ->
    Printf.sprintf "rw[%d keys,%d ops]" (List.length keys) (List.length ops)
  | Active { proc; _ } -> "active[" ^ proc ^ "]"
  | Interactive _ -> "interactive"
  | Join n -> "join[" ^ Node_id.to_string n ^ "]"
  | Leave n -> "leave[" ^ Node_id.to_string n ^ "]"

let to_string t = Id.to_string t.id ^ ":" ^ kind_to_string t.kind
let pp ppf t = Format.pp_print_string ppf (to_string t)

let pp_response ppf = function
  | Committed results ->
    Format.fprintf ppf "committed[%d]" (List.length results)
  | Procedure_output v -> Format.fprintf ppf "output[%a]" Value.pp v
  | Aborted -> Format.fprintf ppf "aborted"
  | Busy -> Format.fprintf ppf "busy"
