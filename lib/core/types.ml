(** Shared types of the replication engine (paper Appendix A).

    These mirror the paper's data structures: the engine state machine,
    the last-installed primary component, the [vulnerable] record that
    bridges group-communication notifications and stable storage across
    crashes, the [yellow] record tracking actions delivered in a
    transitional configuration of a primary component, the state message
    exchanged on view changes, and the payload the engine multicasts
    through the group communication layer. *)

open Repro_net
open Repro_gcs
open Repro_db

(** Tables keyed by plain ints (client ids, action indexes), hashed by
    the key itself: a lookup makes no call into the polymorphic hash or
    compare.  A node id is an int, so this is the node table. *)
module Int_tbl = Node_id.Tbl

(** The engine state machine (paper Figure 4). *)
type engine_state =
  | Reg_prim  (** primary component, regular configuration *)
  | Trans_prim  (** primary component, transitional configuration *)
  | Exchange_states
  | Exchange_actions
  | Construct  (** exchanging Create-Primary-Component messages *)
  | No_state  (** transitional configuration hit during [Construct] *)
  | Un_state  (** all CPCs seen but some only transitionally: undecided *)
  | Non_prim

let engine_state_name = function
  | Reg_prim -> "RegPrim"
  | Trans_prim -> "TransPrim"
  | Exchange_states -> "ExchangeStates"
  | Exchange_actions -> "ExchangeActions"
  | Construct -> "Construct"
  | No_state -> "No"
  | Un_state -> "Un"
  | Non_prim -> "NonPrim"

let pp_engine_state ppf s = Format.pp_print_string ppf (engine_state_name s)

(* The text encoding of protocol state is written into a buffer
   ([bprint_*] below): the model checker hashes it for every state it
   reaches, where a [Format] printer costs several times as much. *)

(** The last primary component this server knows installed. *)
type prim_component = {
  prim_index : int;  (** index of the last primary component installed *)
  prim_attempt : int;  (** attempt by which it was installed *)
  prim_servers : Node_id.Set.t;  (** its membership *)
}

let initial_prim ~servers = { prim_index = 0; prim_attempt = 0; prim_servers = servers }

(** [index/attempt {servers}], e.g. [2/3 {n0,n1}]. *)
let bprint_prim b p =
  Printf.bprintf b "%d/%d %s" p.prim_index p.prim_attempt
    (Node_id.set_to_string p.prim_servers)

(** {!bprint_prim} for [Format] reports. *)
let pp_prim ppf p =
  let b = Buffer.create 32 in
  bprint_prim b p;
  Format.pp_print_string ppf (Buffer.contents b)

let prim_order a b =
  let c = Int.compare a.prim_index b.prim_index in
  if c <> 0 then c else Int.compare a.prim_attempt b.prim_attempt

(** Status of the last installation attempt this server joined.  While
    valid, the server does not know how the attempt ended (or, if it
    ended, what was delivered in the installed primary), so it must not
    present itself as a knowledgeable member: no quorum can include a
    vulnerable server (paper §5, [IsQuorum]). *)
type vulnerable = {
  v_valid : bool;
  v_prim_index : int;  (** primary installed before the attempt *)
  v_attempt : int;  (** index of the attempt *)
  v_set : Node_id.Set.t;  (** servers attempting the installation *)
  v_bits : Node_id.Set.t;
      (** members whose CPC message was delivered *safely*: once the
          union of bits over the attempt's participants covers the whole
          set, the attempt's outcome is durably known and vulnerability
          can be cleared (ComputeKnowledge step 4) *)
}

let invalid_vulnerable =
  {
    v_valid = false;
    v_prim_index = 0;
    v_attempt = 0;
    v_set = Node_id.Set.empty;
    v_bits = Node_id.Set.empty;
  }

(** [-] when invalid, else [prim.attempt {set}/{bits}]. *)
let bprint_vulnerable b v =
  if not v.v_valid then Buffer.add_char b '-'
  else
    Printf.bprintf b "%d.%d %s/%s" v.v_prim_index v.v_attempt
      (Node_id.set_to_string v.v_set)
      (Node_id.set_to_string v.v_bits)

let vulnerable_same_attempt a b =
  a.v_valid = b.v_valid
  && a.v_prim_index = b.v_prim_index
  && a.v_attempt = b.v_attempt

(** Actions delivered in a transitional configuration of a primary
    component: globally ordered at this server, but possibly missing or
    red elsewhere. *)
type yellow = {
  y_valid : bool;
  y_set : Action.Id.t list;  (** in delivery order *)
}

let invalid_yellow = { y_valid = false; y_set = [] }

let bprint_list bprint b l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      bprint b x)
    l

(** Action ids, comma-separated: [n0#1,n1#1]. *)
let bprint_ids b ids =
  bprint_list (fun b id -> Buffer.add_string b (Action.Id.to_string id)) b ids

(** A per-creator cut in creator order: [n0:3,n1:2]. *)
let bprint_cut b cut =
  bprint_list
    (fun b (n, i) -> Printf.bprintf b "%s:%d" (Node_id.to_string n) i)
    b (Node_id.Map.bindings cut)

(** An action as [id:kind(gN)], N its creation-time green count; the
    kind is summarised as {!Action.to_string} does, not spelled out. *)
let bprint_action b a =
  Printf.bprintf b "%s(g%d)" (Action.to_string a) a.Action.green_count

let bprint_actions b l = bprint_list bprint_action b l

(** [-] when invalid, else the set in delivery order: [[n0#4,n1#2]]. *)
let bprint_yellow b y =
  if not y.y_valid then Buffer.add_char b '-'
  else Printf.bprintf b "[%a]" bprint_ids y.y_set

(** The state message exchanged at the beginning of every view change
    (paper Appendix A, "State message"). *)
type state_msg = {
  sm_server : Node_id.t;
  sm_conf : Conf_id.t;
  sm_red_cut : int Node_id.Map.t;
      (** per creator: index of its last action this server holds *)
  sm_green_count : int;  (** length of this server's green prefix *)
  sm_green_line : Action.Id.t option;  (** id of its last green action *)
  sm_green_floor : int;
      (** lowest green position whose action body this server still
          holds (a freshly joined replica inherits state by snapshot, not
          by actions, so its floor is its join point) *)
  sm_attempt : int;
  sm_prim : prim_component;
  sm_vulnerable : vulnerable;
  sm_yellow : yellow;
}

(** What the engine multicasts through the group communication layer. *)
type payload =
  | Action_batch of Action.t list
      (** a submission batch: new client (or join/leave) actions from
          one creator, in creation order, ordered and delivered as one
          unit (their shared log frame was covered by a single force
          before the send).  A batch of one carries no batch header. *)
  | Retrans_green of { g_from : int; g_actions : Action.t list }
      (** retransmission of the green actions at positions
          [g_from+1 .. g_from+length], batched for flow control *)
  | Retrans_red of Action.t list  (** retransmission of red actions *)
  | State_msg of state_msg
  | Cpc of { cpc_server : Node_id.t; cpc_conf : Conf_id.t }
      (** Create Primary Component message *)

let payload_size = function
  | Action_batch [ a ] -> a.Action.size
  | Action_batch actions
  | Retrans_red actions
  | Retrans_green { g_actions = actions; _ } ->
    List.fold_left (fun acc a -> acc + a.Action.size + 8) 16 actions
  | State_msg sm -> 128 + (16 * Node_id.Map.cardinal sm.sm_red_cut)
  | Cpc _ -> 32

(* A state message or a CPC prints every field, an action as
   [bprint_action] does.  The model checker hashes queued payloads
   through it: two payloads that print alike may still differ in an
   action's ops, client, semantics, size or request sequence, none of
   which the protocol's ordering reads. *)
let payload_to_string p =
  let b = Buffer.create 64 in
  (match p with
  | Action_batch actions -> Printf.bprintf b "batch[%a]" bprint_actions actions
  | Retrans_green { g_from; g_actions } ->
    Printf.bprintf b "retrans-green %d[%a]" g_from bprint_actions g_actions
  | Retrans_red actions -> Printf.bprintf b "retrans-red[%a]" bprint_actions actions
  | State_msg sm ->
    Printf.bprintf b
      "state %s %s red-cut[%a] green %d line[%a] floor %d attempt %d prim %a \
       vulnerable %a yellow %a"
      (Node_id.to_string sm.sm_server)
      (Conf_id.to_string sm.sm_conf)
      bprint_cut sm.sm_red_cut sm.sm_green_count bprint_ids
      (Option.to_list sm.sm_green_line)
      sm.sm_green_floor sm.sm_attempt bprint_prim sm.sm_prim bprint_vulnerable
      sm.sm_vulnerable bprint_yellow sm.sm_yellow
  | Cpc { cpc_server; cpc_conf } ->
    Printf.bprintf b "cpc %s %s" (Node_id.to_string cpc_server)
      (Conf_id.to_string cpc_conf));
  Buffer.contents b

let pp_payload ppf p = Format.pp_print_string ppf (payload_to_string p)

(** Durable meta record (everything small the engine must persist). *)
type meta = {
  m_prim : prim_component;
  m_vulnerable : vulnerable;
  m_attempt : int;
  m_yellow : yellow;
  m_servers : Node_id.Set.t;  (** known replica set (dynamic joins/leaves) *)
}
