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
    compare. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k land max_int
end)

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

let pp_engine_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Reg_prim -> "RegPrim"
    | Trans_prim -> "TransPrim"
    | Exchange_states -> "ExchangeStates"
    | Exchange_actions -> "ExchangeActions"
    | Construct -> "Construct"
    | No_state -> "No"
    | Un_state -> "Un"
    | Non_prim -> "NonPrim")

(** The last primary component this server knows installed. *)
type prim_component = {
  prim_index : int;  (** index of the last primary component installed *)
  prim_attempt : int;  (** attempt by which it was installed *)
  prim_servers : Node_id.Set.t;  (** its membership *)
}

let initial_prim ~servers = { prim_index = 0; prim_attempt = 0; prim_servers = servers }

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

let pp_payload ppf = function
  | Action_batch actions ->
    Format.fprintf ppf "action-batch x%d" (List.length actions)
  | Retrans_green { g_from; g_actions } ->
    Format.fprintf ppf "retrans-green %d+%d" g_from (List.length g_actions)
  | Retrans_red actions ->
    Format.fprintf ppf "retrans-red x%d" (List.length actions)
  | State_msg sm -> Format.fprintf ppf "state from %a" Node_id.pp sm.sm_server
  | Cpc { cpc_server; _ } -> Format.fprintf ppf "cpc from %a" Node_id.pp cpc_server

(** Durable meta record (everything small the engine must persist). *)
type meta = {
  m_prim : prim_component;
  m_vulnerable : vulnerable;
  m_attempt : int;
  m_yellow : yellow;
  m_servers : Node_id.Set.t;  (** known replica set (dynamic joins/leaves) *)
}
