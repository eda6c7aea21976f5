module Sim = Repro_sim
open Repro_net
open Repro_core

(* The online invariant monitor: feeds every replica's engine input and
   audit streams to the Figure 4 spec oracle ([Spec]), and sweeps the
   instantaneous + step catalogue of [Snapshot] after every audited
   decision (i.e. at every view change) — each sweep runs as a
   zero-delay simulation event, so it observes quiescent post-event
   state and never perturbs the run. *)

type entry = Sim.Time.t * Node_id.t * Engine.audit_event

type record = {
  r_at : Sim.Time.t;
  r_violation : Snapshot.violation;
  r_window : entry list;
}

(* Audit events each violation record keeps as context. *)
let window = 40

type t = {
  sim : Sim.Engine.t;
  replicas : unit -> Replica.t list;
  spec : Spec.t;
  recent : entry Queue.t; (* the last [window] audit events *)
  history : (Node_id.t, Snapshot.node_snap) Hashtbl.t;
  mutable attached : Node_id.Set.t;
  mutable records : record list; (* newest first *)
  mutable scheduled : bool;
  mutable observations : int;
}

let violations t = List.rev_map (fun r -> r.r_violation) t.records
let records t = List.rev t.records
let ok t = t.records = []
let observations t = t.observations
let recent t = List.of_seq (Queue.to_seq t.recent)

let add t v =
  t.records <-
    { r_at = Sim.Engine.now t.sim; r_violation = v; r_window = recent t }
    :: t.records

let observe t =
  t.observations <- t.observations + 1;
  List.iter (add t)
    (Snapshot.sweep t.history
       (List.filter_map Snapshot.of_replica (t.replicas ())))

(* Sweep after the current simulation event completes: engine state is
   transient inside an event; a zero-delay event observes the settled
   state.  Coalesced: many transitions in one instant cost one sweep. *)
let schedule_observe t =
  if not t.scheduled then begin
    t.scheduled <- true;
    Sim.Engine.schedule t.sim ~delay:Sim.Time.zero (fun () ->
        t.scheduled <- false;
        observe t)
  end

let on_audit t ~node ev =
  Queue.push (Sim.Engine.now t.sim, node, ev) t.recent;
  if Queue.length t.recent > window then ignore (Queue.pop t.recent);
  Spec.on_audit t.spec ~node ev;
  List.iter (add t) (Spec.take t.spec);
  schedule_observe t

(* Replicas can appear after creation (joiners): re-scan on every
   [check_now] and hook anything new.  A changed incarnation (crash,
   amnesia, resync) restarts the node's abstract state at NonPrim. *)
let attach_new t =
  List.iter
    (fun r ->
      let node = Replica.node r in
      if not (Node_id.Set.mem node t.attached) then begin
        t.attached <- Node_id.Set.add node t.attached;
        let seen = ref (Replica.incarnation r) in
        let sync () =
          if Replica.incarnation r <> !seen then begin
            seen := Replica.incarnation r;
            Spec.on_recover t.spec ~node
          end
        in
        Replica.set_audit r
          ~input:(fun ev ->
            sync ();
            Spec.on_input t.spec ~node ev)
          (fun ev ->
            sync ();
            on_audit t ~node ev)
      end)
    (t.replicas ())

let check_now t =
  attach_new t;
  observe t

let create ~sim ~replicas =
  let t =
    {
      sim;
      replicas;
      spec = Spec.create ();
      recent = Queue.create ();
      history = Hashtbl.create 16;
      attached = Node_id.Set.empty;
      records = [];
      scheduled = false;
      observations = 0;
    }
  in
  attach_new t;
  t

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_audit ppf = function
  | Engine.Audit_state s ->
    Format.fprintf ppf "state %a" Types.pp_engine_state s
  | Engine.Audit_quorum { aq_members; aq_vulnerable; aq_prev_prim; aq_granted }
    ->
    Format.fprintf ppf
      "quorum granted=%b members=%a vulnerable=%a prev-prim=%d" aq_granted
      Node_id.pp_set aq_members Node_id.pp_set aq_vulnerable
      aq_prev_prim.Types.prim_index
  | Engine.Audit_install p ->
    Format.fprintf ppf "install primary %d attempt %d members %a"
      p.Types.prim_index p.Types.prim_attempt Node_id.pp_set
      p.Types.prim_servers

let pp_record ppf r =
  Format.fprintf ppf "@[<v 2>at %a: %a" Sim.Time.pp r.r_at
    Snapshot.pp_violation r.r_violation;
  if r.r_window <> [] then begin
    Format.fprintf ppf "@,trace window (last %d events):"
      (List.length r.r_window);
    List.iter
      (fun (at, node, ev) ->
        Format.fprintf ppf "@,  [%a] %a %a" Sim.Time.pp at Node_id.pp node
          pp_audit ev)
      r.r_window
  end;
  Format.fprintf ppf "@]"

let report t ppf =
  match t.records with
  | [] ->
    Format.fprintf ppf "repcheck: %d observations, no violations@."
      t.observations
  | _ ->
    Format.fprintf ppf
      "@[<v>repcheck: %d violation(s) in %d observations:@,%a@]@."
      (List.length t.records) t.observations
      (Format.pp_print_list pp_record)
      (List.rev t.records)

let assert_ok t =
  if not (ok t) then
    failwith (Format.asprintf "%t" (report t)) (* repcheck: allow *)
