(* Interprocedural effect inference.

   Every table function gets a summary of booleans — the effect labels
   {Persist, Force, Send, Mutate, Raise, Random} plus two derived ones
   the headline analyses consume (SetsState for the spec-drift
   extraction, UnguardedSend for the write-ahead check) — computed as
   the least fixpoint of "a function has an effect if it performs it
   directly or references a function that has it".  References, not
   just saturated calls: a partially applied [mark_green t] handed to
   [List.iter] will run, so its effects count.

   The primitive vocabulary is the project's storage and group-
   communication API:

   - Persist: [Wlog.append] — a frame of entries enters the log buffer
     (not yet durable);
   - Force: [Wlog.sync] / [Disk.force] — a
     stable-storage force is requested; its continuation runs once the
     entries are durable;
   - Send: [Endpoint.send], [Network.unicast] / [Network.broadcast],
     and any application of a record field labelled [send] (the
     engine's callback indirection into the GCS layer).

   UnguardedSend is the write-ahead analysis' notion of a *protocol*
   send point: an application of a [send]-labelled field that is not
   syntactically inside a continuation passed to a Force-effecting
   callee.  [sync_then t (fun () -> send_payload t ...)] is guarded —
   the send happens after durability — while a bare [send_payload]
   after an append is not; the property propagates through calls that
   occur outside such continuations. *)

type effects = {
  mutable e_persist : bool;
  mutable e_force : bool;
  mutable e_send : bool;
  mutable e_mutate : bool;
  mutable e_raise : bool;
  mutable e_random : bool;
  mutable e_sets_state : bool;
  mutable e_unguarded_send : bool;
  mutable e_unordered : bool;
      (** iterates a hash table ([Hashtbl.iter]/[fold], incl. functor
          instances) — result order depends on hashing, a nondeterminism
          source for anything replica-visible *)
  mutable e_phys_eq_value : bool;
      (** applies [==]/[!=] to a [Value.t] — physical identity is an
          allocation accident, not replicated state *)
}

let fresh () =
  {
    e_persist = false;
    e_force = false;
    e_send = false;
    e_mutate = false;
    e_raise = false;
    e_random = false;
    e_sets_state = false;
    e_unguarded_send = false;
    e_unordered = false;
    e_phys_eq_value = false;
  }

type t = {
  graph : Callgraph.t;
  table : (string, effects) Hashtbl.t;
  refs : (string, string list) Hashtbl.t;
      (** per function: table functions it references *)
}

let persist_prims = [ "Wlog.append" ]
let force_prims = [ "Wlog.sync"; "Disk.force" ]

let send_prims =
  [ "Endpoint.send"; "Network.unicast"; "Network.broadcast"; "Model.send" ]

let raise_prims = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let mutate_prims =
  [ ":="; "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Array.set"; "Bytes.set" ]

let clock_prims = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let unordered_prims =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.Make.iter"; "Hashtbl.Make.fold" ]

let is_random_name n = Cmt_load.has_prefix "Random." n || List.mem n clock_prims

(* A transition function by name: the engine's (and any fixture's)
   [set_state]. *)
let is_transition_path p =
  match p with
  | Path.Pdot (_, s) -> s = "set_state"
  | Path.Pident id -> Ident.name id = "set_state"
  | _ -> false

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e = fresh () in
    Hashtbl.replace t.table key e;
    e

let refs t key = match Hashtbl.find_opt t.refs key with Some l -> l | None -> []

(* --- phase A: direct effects and the reference graph ----------------- *)

let scan_direct graph (fn : Callgraph.fn) =
  let eff = fresh () in
  let rs = ref [] in
  let caller_unit = fn.f_unit.Cmt_load.u_name in
  let on_ident p =
    let names = Callgraph.prim_names graph ~caller_unit p in
    let mem prims = List.exists (fun n -> List.mem n prims) names in
    if mem persist_prims then eff.e_persist <- true;
    if mem force_prims then eff.e_force <- true;
    if mem send_prims then eff.e_send <- true;
    if mem raise_prims then eff.e_raise <- true;
    if mem mutate_prims then eff.e_mutate <- true;
    if List.exists is_random_name names then eff.e_random <- true;
    if
      List.mem (Callgraph.canonical graph ~caller_unit p) unordered_prims
      || mem unordered_prims
    then eff.e_unordered <- true;
    if is_transition_path p then eff.e_sets_state <- true;
    match Callgraph.resolve graph ~caller_unit p with
    | Some g when g.Callgraph.f_key <> fn.Callgraph.f_key ->
      rs := g.Callgraph.f_key :: !rs
    | Some _ | None -> ()
  in
  let expr_hook it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> on_ident p
    | Typedtree.Texp_setfield (_, _, _, v) ->
      eff.e_mutate <- true;
      if Cmt_load.is_engine_state v.exp_type then eff.e_sets_state <- true
    | Typedtree.Texp_setinstvar _ -> eff.e_mutate <- true
    | Typedtree.Texp_assert _ -> eff.e_raise <- true
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_field (_, _, lbl); _ }, _)
      when lbl.lbl_name = "send" ->
      eff.e_send <- true
    | Typedtree.Texp_apply
        ( {
            exp_desc =
              Typedtree.Texp_ident (Path.Pdot (Path.Pident m, op), _, _);
            _;
          },
          args )
      when Ident.name m = "Stdlib"
           && (op = "==" || op = "!=")
           && List.exists
                (fun (_, a) ->
                  match a with
                  | Some (a : Typedtree.expression) ->
                    Cmt_load.is_value_type a.exp_type
                  | None -> false)
                args ->
      eff.e_phys_eq_value <- true
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_hook } in
  it.Tast_iterator.expr it fn.Callgraph.f_expr;
  (eff, List.rev !rs)

(* --- phase B: unguarded sends ---------------------------------------- *)

let is_fun_literal (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* Is this application's callee going to force the log before running
   function-literal arguments?  (Force prims take the continuation
   directly; so do the engine's [sync_then] wrappers, recognized
   through their inferred Force effect.) *)
let callee_forces t ~caller_unit (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
    let names = Callgraph.prim_names t.graph ~caller_unit p in
    List.exists (fun n -> List.mem n force_prims) names
    ||
    match Callgraph.resolve t.graph ~caller_unit p with
    | Some g -> (find t g.Callgraph.f_key).e_force
    | None -> false)
  | _ -> false

let scan_unguarded t (fn : Callgraph.fn) =
  let direct = ref false in
  let rs = ref [] in
  let caller_unit = fn.f_unit.Cmt_load.u_name in
  let rec walk guarded (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
      match Callgraph.resolve t.graph ~caller_unit p with
      | Some g when g.Callgraph.f_key <> fn.Callgraph.f_key ->
        if not guarded then rs := g.Callgraph.f_key :: !rs
      | Some _ | None -> ())
    | Typedtree.Texp_apply (f, args) ->
      (match f.exp_desc with
      | Typedtree.Texp_field (obj, _, lbl) when lbl.lbl_name = "send" ->
        if not guarded then direct := true;
        walk guarded obj
      | _ -> walk guarded f);
      let forces = callee_forces t ~caller_unit f in
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some a when forces && is_fun_literal a -> walk true a
          | Some a -> walk guarded a
          | None -> ())
        args
    | _ -> List.iter (walk guarded) (Callgraph.subexprs e)
  in
  walk false fn.Callgraph.f_expr;
  (!direct, List.rev !rs)

(* --- the fixpoints ---------------------------------------------------- *)

let infer (graph : Callgraph.t) =
  let t = { graph; table = Hashtbl.create 256; refs = Hashtbl.create 256 } in
  let fns =
    List.filter_map (fun key -> Callgraph.find graph key) graph.Callgraph.keys
  in
  List.iter
    (fun fn ->
      let eff, rs = scan_direct graph fn in
      Hashtbl.replace t.table fn.Callgraph.f_key eff;
      Hashtbl.replace t.refs fn.Callgraph.f_key rs)
    fns;
  (* Basic effects: propagate along references to a fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let eff = find t fn.Callgraph.f_key in
        List.iter
          (fun g ->
            let ge = find t g in
            let lift get set =
              if get ge && not (get eff) then begin
                set eff;
                changed := true
              end
            in
            lift (fun e -> e.e_persist) (fun e -> e.e_persist <- true);
            lift (fun e -> e.e_force) (fun e -> e.e_force <- true);
            lift (fun e -> e.e_send) (fun e -> e.e_send <- true);
            lift (fun e -> e.e_mutate) (fun e -> e.e_mutate <- true);
            lift (fun e -> e.e_raise) (fun e -> e.e_raise <- true);
            lift (fun e -> e.e_random) (fun e -> e.e_random <- true);
            lift (fun e -> e.e_unordered) (fun e -> e.e_unordered <- true);
            lift
              (fun e -> e.e_phys_eq_value)
              (fun e -> e.e_phys_eq_value <- true);
            lift (fun e -> e.e_sets_state) (fun e -> e.e_sets_state <- true))
          (refs t fn.Callgraph.f_key))
      fns
  done;
  (* Unguarded sends: the guarded-continuation scan needs the Force
     results above, so it runs second, with its own fixpoint. *)
  let unguarded_refs = Hashtbl.create 256 in
  List.iter
    (fun fn ->
      let direct, rs = scan_unguarded t fn in
      let eff = find t fn.Callgraph.f_key in
      if direct then eff.e_unguarded_send <- true;
      Hashtbl.replace unguarded_refs fn.Callgraph.f_key rs)
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let eff = find t fn.Callgraph.f_key in
        if not eff.e_unguarded_send then
          let rs =
            match Hashtbl.find_opt unguarded_refs fn.Callgraph.f_key with
            | Some l -> l
            | None -> []
          in
          if List.exists (fun g -> (find t g).e_unguarded_send) rs then begin
            eff.e_unguarded_send <- true;
            changed := true
          end)
      fns
  done;
  t
