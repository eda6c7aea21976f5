open Repro_net

(* An abstract Extended Virtual Synchrony service, used in place of the
   full timing-driven endpoint stack when model checking the replication
   engine.

   Instead of heartbeats, sequencers and flush rounds, each installed
   configuration is a shared append-only log.  A send appends to the
   sender's current configuration; every member then delivers the log in
   order, each at its own pace — the model checker picks which member
   delivers next, which is exactly the interleaving freedom EVS grants.
   A reconfiguration closes every configuration whose membership no
   longer matches a connectivity component and schedules, per surviving
   member, the EVS view-change sequence: the remaining regular-delivery
   prefix, the transitional configuration, leftover deliveries without
   the safe guarantee, and the next regular configuration.

   The regular/transitional split at a close respects the safe-delivery
   rule: a message any member already delivered in the regular
   configuration was received by all members (trivially true here — the
   log is shared), so it stays [in_regular]; messages beyond every
   member's delivery point are demoted to transitional delivery, the
   pessimistic-but-legal EVS outcome that exercises the engine's yellow
   knowledge.  Messages sent while the sender's configuration is already
   closed are lost, like unordered messages at a real view change. *)

type 'p conf = {
  cf_id : Conf_id.t;
  cf_members : Node_id.Set.t;
  mutable cf_rev_log : (Node_id.t * 'p) list; (* newest first *)
  mutable cf_len : int;
  mutable cf_open : bool;
  cf_cursors : (Node_id.t, int) Hashtbl.t;
      (* delivered count per member; survives the member's crash so a
         close can still honour what the dead member saw in_regular *)
}

(* A member's delivery plan, as a queue of segments. *)
type 'p seg =
  | Sread of {
      sr_conf : 'p conf;
      mutable sr_next : int; (* 1-based seq of the next delivery *)
      sr_upto : int option; (* None: open conf, read to the live tail *)
      sr_reg : bool;
    }
  | Strans of Endpoint.view
  | Sreg of 'p conf

type 'p member = {
  mutable m_live : bool;
  mutable m_script : 'p seg list; (* front = next *)
  mutable m_view : 'p conf option; (* last Sreg delivered *)
}

type 'p t = {
  order : Node_id.t list;
  members : (Node_id.t, 'p member) Hashtbl.t;
  mutable confs : 'p conf list; (* creation order *)
  mutable counter : int;
  mutable appended : Conf_id.t list; (* since last [take_appended] *)
  mutable lost : int;
  pp_payload : 'p -> string;
}

let create ~nodes ~pp_payload () =
  let members = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace members n { m_live = true; m_script = []; m_view = None })
    nodes;
  {
    order = nodes;
    members;
    confs = [];
    counter = 0;
    appended = [];
    lost = 0;
    pp_payload;
  }

let member t n =
  match Hashtbl.find_opt t.members n with
  | Some m -> m
  | None -> invalid_arg (Format.asprintf "Model: unknown node %a" Node_id.pp n)

let lost_sends t = t.lost
let take_appended t =
  let l = List.rev t.appended in
  t.appended <- [];
  l

let cursor c n =
  match Hashtbl.find_opt c.cf_cursors n with Some k -> k | None -> 0

let log_nth c seq = List.nth c.cf_rev_log (c.cf_len - seq)

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

let send t ~from payload =
  let m = member t from in
  match m.m_view with
  | Some c when c.cf_open ->
    c.cf_rev_log <- (from, payload) :: c.cf_rev_log;
    c.cf_len <- c.cf_len + 1;
    t.appended <- c.cf_id :: t.appended
  | Some _ | None -> t.lost <- t.lost + 1

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

(* Drop exhausted bounded segments at the head of a script. *)
let rec normalize m =
  match m.m_script with
  | Sread { sr_upto = Some u; sr_next; _ } :: rest when sr_next > u ->
    m.m_script <- rest;
    normalize m
  | _ -> ()

let view_of c = { Endpoint.id = c.cf_id; members = c.cf_members }

type 'p next =
  | N_none
  | N_deliver of 'p conf * int * bool (* conf, seq, in_regular *)
  | N_trans of Endpoint.view
  | N_reg of 'p conf

let peek_next t n =
  let m = member t n in
  if not m.m_live then N_none
  else begin
    normalize m;
    match m.m_script with
    | [] -> N_none
    | Strans v :: _ -> N_trans v
    | Sreg c :: _ -> N_reg c
    | Sread r :: _ ->
      let limit =
        match r.sr_upto with Some u -> u | None -> r.sr_conf.cf_len
      in
      if r.sr_next <= limit then N_deliver (r.sr_conf, r.sr_next, r.sr_reg)
      else N_none (* open conf, caught up *)
  end

let has_pending t n = peek_next t n <> N_none

(* Whether the next delivery at [n] is a fresh regular-configuration
   message (as opposed to view-change fallout: leftovers and conf
   notifications) — the granularity boundary the checker uses. *)
let next_is_fresh t n =
  match peek_next t n with
  | N_deliver (c, _, _) -> c.cf_open
  | N_trans _ | N_reg _ | N_none -> false

let deliver t n =
  let m = member t n in
  normalize m;
  match peek_next t n with
  | N_none -> None
  | N_trans v ->
    m.m_script <- List.tl m.m_script;
    Some (Endpoint.Trans_conf v)
  | N_reg c ->
    m.m_script <- List.tl m.m_script;
    m.m_view <- Some c;
    Some (Endpoint.Reg_conf (view_of c))
  | N_deliver (c, seq, in_regular) ->
    (match m.m_script with
    | Sread r :: _ -> r.sr_next <- seq + 1
    | _ -> assert false);
    Hashtbl.replace c.cf_cursors n (max (cursor c n) seq);
    let sender, payload = log_nth c seq in
    Some
      (Endpoint.Deliver
         { Endpoint.sender; payload; conf = c.cf_id; seq; in_regular })

(* ------------------------------------------------------------------ *)
(* Faults and reconfiguration                                          *)

let crash t n =
  let m = member t n in
  m.m_live <- false;
  m.m_script <- [];
  m.m_view <- None

let recover t n = (member t n).m_live <- true

(* The open configuration a live member is reading (the tail of its
   script), if any. *)
let open_conf_of m =
  let rec last = function
    | [] -> None
    | [ Sread { sr_conf; sr_upto = None; _ } ] -> Some sr_conf
    | _ :: rest -> last rest
  in
  last m.m_script

let reconfigure t ~components =
  let live = List.filter (fun n -> (member t n).m_live) t.order in
  let live_set = Node_id.Set.of_list live in
  let targets =
    List.filter_map
      (fun comp ->
        let target = Node_id.Set.inter comp live_set in
        if Node_id.Set.is_empty target then None else Some target)
      components
  in
  let keeps c =
    c.cf_open && List.exists (Node_id.Set.equal c.cf_members) targets
  in
  let closing = List.filter (fun c -> c.cf_open && not (keeps c)) t.confs in
  (* Close: fix the regular/transitional split point of each dying
     configuration before any member's script is rewritten. *)
  let reg_cut c =
    Node_id.Set.fold (fun n acc -> max acc (cursor c n)) c.cf_members 0
  in
  let cuts = List.map (fun c -> (c, reg_cut c)) closing in
  List.iter (fun c -> c.cf_open <- false) closing;
  (* Install: one fresh configuration per target not already served. *)
  List.iter
    (fun target ->
      if
        not
          (List.exists
             (fun c -> c.cf_open && Node_id.Set.equal c.cf_members target)
             t.confs)
      then begin
        t.counter <- t.counter + 1;
        let c' =
          {
            cf_id =
              { Conf_id.coord = Node_id.Set.min_elt target; counter = t.counter };
            cf_members = target;
            cf_rev_log = [];
            cf_len = 0;
            cf_open = true;
            cf_cursors = Hashtbl.create 8;
          }
        in
        t.confs <- t.confs @ [ c' ];
        Node_id.Set.iter
          (fun n ->
            let m = member t n in
            let tail =
              match open_conf_of m with
              | Some c when not c.cf_open -> (
                (* c just closed under this member: regular prefix up to
                   the cut, transitional notice, demoted leftovers. *)
                let cut = List.assq c cuts in
                let next = cursor c n + 1 in
                (* drop the now-stale unbounded read *)
                m.m_script <-
                  List.filter
                    (function
                      | Sread { sr_conf; sr_upto = None; _ } -> sr_conf != c
                      | _ -> true)
                    m.m_script;
                let trans_view =
                  {
                    Endpoint.id = c.cf_id;
                    members = Node_id.Set.inter c.cf_members target;
                  }
                in
                (if next <= cut then
                   [
                     Sread
                       { sr_conf = c; sr_next = next; sr_upto = Some cut; sr_reg = true };
                   ]
                 else [])
                @ [ Strans trans_view ]
                @
                if cut < c.cf_len then
                  [
                    Sread
                      {
                        sr_conf = c;
                        sr_next = cut + 1;
                        sr_upto = Some c.cf_len;
                        sr_reg = false;
                      };
                  ]
                else [])
              | Some _ | None -> [] (* fresh or recovered member: no history *)
            in
            m.m_script <-
              m.m_script @ tail
              @ [
                  Sreg c';
                  Sread { sr_conf = c'; sr_next = 1; sr_upto = None; sr_reg = true };
                ])
          target
      end)
    targets

(* ------------------------------------------------------------------ *)
(* Fingerprinting                                                      *)

let fingerprint t =
  let b = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Format.asprintf "[%s %a %s len=%d log="
           (Conf_id.to_string c.cf_id)
           Node_id.pp_set c.cf_members
           (if c.cf_open then "open" else "closed")
           c.cf_len);
      List.iter
        (fun (sender, p) ->
          Buffer.add_string b
            (Format.asprintf "%a:%s;" Node_id.pp sender (t.pp_payload p)))
        (List.rev c.cf_rev_log);
      Buffer.add_string b " cur=";
      List.iter
        (fun n ->
          if Node_id.Set.mem n c.cf_members then
            Buffer.add_string b (Format.asprintf "%a:%d," Node_id.pp n (cursor c n)))
        t.order;
      Buffer.add_string b "]")
    t.confs;
  List.iter
    (fun n ->
      let m = member t n in
      Buffer.add_string b
        (Format.asprintf "{%a %s view=%s script=" Node_id.pp n
           (if m.m_live then "live" else "down")
           (match m.m_view with
           | Some c -> Conf_id.to_string c.cf_id
           | None -> "-"));
      List.iter
        (fun seg ->
          Buffer.add_string b
            (match seg with
            | Sread r ->
              Format.asprintf "r(%s,%d,%s,%b)"
                (Conf_id.to_string r.sr_conf.cf_id)
                r.sr_next
                (match r.sr_upto with Some u -> string_of_int u | None -> "*")
                r.sr_reg
            | Strans v ->
              Format.asprintf "t(%a)" Node_id.pp_set v.Endpoint.members
            | Sreg c -> Format.asprintf "g(%s)" (Conf_id.to_string c.cf_id)))
        m.m_script;
      Buffer.add_string b "}")
    t.order;
  Buffer.contents b
