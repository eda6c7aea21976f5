open Repro_net
open Repro_gcs
open Repro_core

(* An executable model of the paper's Figure 4 / Appendix A automaton,
   the one event-level protocol oracle.  Both drivers feed it the
   observable behaviour of each concrete engine through the engine's
   sinks ([Engine.set_audit]): the online monitor for every replica of a
   simulated world, the model checker for every engine it explores.  The
   input sink hands it each group-communication event before the engine
   processes it, the audit sink each decision the engine makes, and the
   oracle verifies that every concrete step refines an abstract one:

   - every [Audit_state] transition must be an edge of Figure 4, taken
     under the trigger that the abstract automaton takes it under
     (view change, state-message delivery, CPC delivery, ...);
   - every [Audit_quorum] decision must equal the specification's
     IsQuorum: dynamic linear voting over the last installed primary,
     with vulnerable members excluded — this is the check that catches
     a seeded quorum mutation;
   - every [Audit_install] must be justified by a granted quorum in the
     current configuration, advance the primary index by exactly one,
     and agree with every other server's installation of that index
     (a global registry, the §4 exclusivity argument).

   The refinement mapping is direct: the engine's state names are the
   abstract states, so the oracle only tracks, per node, the previous
   audited state, the last consumed trigger, and the last quorum
   outcome of the current configuration. *)

type trigger =
  | Tr_none
  | Tr_trans_conf
  | Tr_reg_conf
  | Tr_action of bool (* in_regular *)
  | Tr_retrans
  | Tr_state_msg
  | Tr_cpc

let pp_trigger ppf t =
  Format.pp_print_string ppf
    (match t with
    | Tr_none -> "none"
    | Tr_trans_conf -> "trans-conf"
    | Tr_reg_conf -> "reg-conf"
    | Tr_action true -> "action"
    | Tr_action false -> "action~"
    | Tr_retrans -> "retrans"
    | Tr_state_msg -> "state-msg"
    | Tr_cpc -> "cpc")

type quorum_outcome =
  | Q_pending
  | Q_granted of Types.prim_component * Node_id.Set.t (* prev prim, members *)
  | Q_denied

type shadow = {
  mutable sh_state : Types.engine_state;
  mutable sh_trigger : trigger;
  mutable sh_quorum : quorum_outcome;
}

type t = {
  shadows : (Node_id.t, shadow) Hashtbl.t;
  installs : (int, Types.prim_component) Hashtbl.t;
  mutable violations : Snapshot.violation list; (* newest first *)
}

let create () =
  { shadows = Hashtbl.create 8; installs = Hashtbl.create 8; violations = [] }

let fresh_shadow () =
  { sh_state = Types.Non_prim; sh_trigger = Tr_none; sh_quorum = Q_pending }

let shadow t node =
  match Hashtbl.find_opt t.shadows node with
  | Some s -> s
  | None ->
    let s = fresh_shadow () in
    Hashtbl.replace t.shadows node s;
    s

let flag t ?node fmt = Format.kasprintf
    (fun d ->
      t.violations <-
        { Snapshot.v_invariant = "spec-refinement"; v_node = node; v_detail = d }
        :: t.violations)
    fmt

let take t =
  let v = List.rev t.violations in
  t.violations <- [];
  v

let ok t = t.violations = []

(* ------------------------------------------------------------------ *)
(* Observed inputs                                                     *)

let on_input t ~node (ev : Types.payload Endpoint.event) =
  let sh = shadow t node in
  sh.sh_trigger <-
    (match ev with
    | Endpoint.Trans_conf _ -> Tr_trans_conf
    | Endpoint.Reg_conf _ ->
      sh.sh_quorum <- Q_pending;
      Tr_reg_conf
    | Endpoint.Deliver d -> (
      match d.Endpoint.payload with
      | Types.Action_batch _ -> Tr_action d.Endpoint.in_regular
      | Types.Retrans_green _ | Types.Retrans_red _ -> Tr_retrans
      | Types.State_msg _ -> Tr_state_msg
      | Types.Cpc _ -> Tr_cpc))

let on_recover t ~node = Hashtbl.replace t.shadows node (fresh_shadow ())

(* ------------------------------------------------------------------ *)
(* Figure 4 edges                                                      *)

(* The automaton as data: (source, target, guard).  A [None] source is
   a wildcard (the edge leaves every state).  The guard says under
   which trigger / quorum outcome the abstract automaton takes the
   edge.  Exposing the graph declaratively lets the static spec-drift
   analysis (lib/analysis, bin/lint.exe) diff the transitions compiled
   into lib/core/engine.ml against this table without re-encoding
   Figure 4 a third time. *)

let all_states =
  Types.
    [
      Reg_prim;
      Trans_prim;
      Exchange_states;
      Exchange_actions;
      Construct;
      No_state;
      Un_state;
      Non_prim;
    ]

(* Constructor names, the shared vocabulary with the static analysis
   (which reads them off the typed AST). *)
let state_name : Types.engine_state -> string = function
  | Types.Reg_prim -> "Reg_prim"
  | Types.Trans_prim -> "Trans_prim"
  | Types.Exchange_states -> "Exchange_states"
  | Types.Exchange_actions -> "Exchange_actions"
  | Types.Construct -> "Construct"
  | Types.No_state -> "No_state"
  | Types.Un_state -> "Un_state"
  | Types.Non_prim -> "Non_prim"

type edge_guard = trigger -> quorum_outcome -> bool

let fig4 :
    (Types.engine_state option * Types.engine_state * edge_guard) list =
  let open Types in
  [
    (* A view change always restarts the exchange. *)
    (None, Exchange_states, fun tr _ -> tr = Tr_reg_conf);
    (* All state messages of the configuration arrived. *)
    (Some Exchange_states, Exchange_actions, fun tr _ -> tr = Tr_state_msg);
    (* End of retransmission, quorum granted / denied. *)
    ( Some Exchange_actions,
      Construct,
      fun _ q -> match q with Q_granted _ -> true | Q_pending | Q_denied -> false
    );
    ( Some Exchange_actions,
      Non_prim,
      fun tr q -> q = Q_denied || tr = Tr_trans_conf );
    (* Transitional configuration interrupts. *)
    (Some Reg_prim, Trans_prim, fun tr _ -> tr = Tr_trans_conf);
    (Some Construct, No_state, fun tr _ -> tr = Tr_trans_conf);
    (Some Exchange_states, Non_prim, fun tr _ -> tr = Tr_trans_conf);
    (* All CPCs in. *)
    (Some Construct, Reg_prim, fun tr _ -> tr = Tr_cpc);
    (Some No_state, Un_state, fun tr _ -> tr = Tr_cpc);
    (* 1b: an ordered action reveals that the attempt succeeded. *)
    ( Some Un_state,
      Trans_prim,
      fun tr _ -> match tr with Tr_action _ -> true | _ -> false );
  ]

(* The guard-erased edge set: a concrete transition refines Figure 4
   when some guarded edge matches it under some trigger. *)
let edges : (Types.engine_state option * Types.engine_state) list =
  List.map (fun (f, t, _) -> (f, t)) fig4

let legal_edge sh (to_ : Types.engine_state) =
  List.exists
    (fun (from_, target, guard) ->
      (match from_ with None -> true | Some s -> s = sh.sh_state)
      && target = to_
      && guard sh.sh_trigger sh.sh_quorum)
    fig4

let on_state t ~node to_ =
  let sh = shadow t node in
  if not (legal_edge sh to_) then
    flag t ~node "illegal Figure 4 edge %a -> %a under trigger %a"
      Types.pp_engine_state sh.sh_state Types.pp_engine_state to_ pp_trigger
      sh.sh_trigger;
  sh.sh_state <- to_

(* ------------------------------------------------------------------ *)
(* IsQuorum refinement (paper §5)                                      *)

let on_quorum t ~node ~members ~vulnerable ~prev_prim ~granted =
  let sh = shadow t node in
  if sh.sh_state <> Types.Exchange_actions then
    flag t ~node "quorum evaluated in %a (spec: ExchangeActions only)"
      Types.pp_engine_state sh.sh_state;
  let expected =
    Quorum.is_quorum ~prev:prev_prim.Types.prim_servers
      ~vulnerable_present:(not (Node_id.Set.is_empty vulnerable)) members
  in
  if granted <> expected then
    flag t ~node
      "engine %s a quorum the specification would %s (members %a, prev \
       primary %d %a, vulnerable %a)"
      (if granted then "granted" else "denied")
      (if expected then "grant" else "deny")
      Node_id.pp_set members prev_prim.Types.prim_index Node_id.pp_set
      prev_prim.Types.prim_servers Node_id.pp_set vulnerable;
  sh.sh_quorum <- (if granted then Q_granted (prev_prim, members) else Q_denied)

(* ------------------------------------------------------------------ *)
(* Install refinement (paper §4, A.10)                                 *)

let on_install t ~node (prim : Types.prim_component) =
  let sh = shadow t node in
  (match sh.sh_state with
  | Types.Construct | Types.Un_state -> ()
  | s ->
    flag t ~node "install in %a (spec: Construct or Un only)"
      Types.pp_engine_state s);
  (match sh.sh_quorum with
  | Q_granted (prev, members) ->
    if prim.Types.prim_index <> prev.Types.prim_index + 1 then
      flag t ~node "installed primary %d does not follow quorum's primary %d"
        prim.Types.prim_index prev.Types.prim_index;
    if not (Node_id.Set.equal prim.Types.prim_servers members) then
      flag t ~node "installed membership %a differs from quorate view %a"
        Node_id.pp_set prim.Types.prim_servers Node_id.pp_set members
  | Q_pending | Q_denied ->
    flag t ~node "install of primary %d without a granted quorum"
      prim.Types.prim_index);
  (* Global exclusivity: one component per index, each a dynamic-linear
     majority of its predecessor. *)
  (match Hashtbl.find_opt t.installs prim.Types.prim_index with
  | Some first
    when first.Types.prim_attempt <> prim.Types.prim_attempt
         || not
              (Node_id.Set.equal first.Types.prim_servers
                 prim.Types.prim_servers) ->
    flag t ~node "primary %d installed twice: attempt %d %a vs attempt %d %a"
      prim.Types.prim_index first.Types.prim_attempt Node_id.pp_set
      first.Types.prim_servers prim.Types.prim_attempt Node_id.pp_set
      prim.Types.prim_servers
  | Some _ | None -> Hashtbl.replace t.installs prim.Types.prim_index prim);
  match Hashtbl.find_opt t.installs (prim.Types.prim_index - 1) with
  | Some prev
    when not
           (Quorum.has_majority ~prev:prev.Types.prim_servers
              prim.Types.prim_servers) ->
    flag t ~node "primary %d (%a) is not a majority of primary %d (%a)"
      prim.Types.prim_index Node_id.pp_set prim.Types.prim_servers
      (prim.Types.prim_index - 1)
      Node_id.pp_set prev.Types.prim_servers
  | Some _ | None -> ()

let on_audit t ~node = function
  | Engine.Audit_state s -> on_state t ~node s
  | Engine.Audit_quorum { aq_members; aq_vulnerable; aq_prev_prim; aq_granted }
    ->
    on_quorum t ~node ~members:aq_members ~vulnerable:aq_vulnerable
      ~prev_prim:aq_prev_prim ~granted:aq_granted
  | Engine.Audit_install prim -> on_install t ~node prim

let state t node = (shadow t node).sh_state
