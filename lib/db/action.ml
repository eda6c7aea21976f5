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
  let pp ppf t = Format.fprintf ppf "%a#%d" Node_id.pp t.server t.index

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

let pp_kind ppf = function
  | Query keys -> Format.fprintf ppf "query[%s]" (String.concat "," keys)
  | Update ops -> Format.fprintf ppf "update[%d ops]" (List.length ops)
  | Read_write (keys, ops) ->
    Format.fprintf ppf "rw[%d keys,%d ops]" (List.length keys) (List.length ops)
  | Active { proc; _ } -> Format.fprintf ppf "active[%s]" proc
  | Interactive _ -> Format.fprintf ppf "interactive"
  | Join n -> Format.fprintf ppf "join[%a]" Node_id.pp n
  | Leave n -> Format.fprintf ppf "leave[%a]" Node_id.pp n

let pp ppf t = Format.fprintf ppf "%a:%a" Id.pp t.id pp_kind t.kind

let pp_response ppf = function
  | Committed results ->
    Format.fprintf ppf "committed[%d]" (List.length results)
  | Procedure_output v -> Format.fprintf ppf "output[%a]" Value.pp v
  | Aborted -> Format.fprintf ppf "aborted"
  | Busy -> Format.fprintf ppf "busy"
