(* Interprocedural effect inference.

   Every table function gets a summary: the set of effect labels
   {Persist, Force, Random, Unordered, PhysEq} plus two derived ones the
   headline analyses consume (SetsState for the spec-drift extraction,
   UnguardedSend for the write-ahead check), one bit each, joined by
   union — computed as the least fixpoint of "a function has an effect
   if it performs it directly or references a function that has it".  References, not just saturated
   calls: a partially applied [mark_green t] handed to [List.iter] will
   run, so its effects count.

   The primitive vocabulary is the project's storage API:

   - Persist: [Wlog.append] — a frame of entries enters the log buffer
     (not yet durable);
   - Force: [Wlog.sync] / [Disk.force] — a stable-storage force is
     requested; its continuation runs once the entries are durable;
   - Random: [Random.*] and the wall-clock reads;
   - Unordered: [Hashtbl.iter]/[fold] (incl. functor instances) — result
     order depends on hashing, a nondeterminism source for anything
     replica-visible;
   - PhysEq: [==]/[!=] applied to a [Value.t] — physical identity is an
     allocation accident, not replicated state.

   UnguardedSend is the write-ahead analysis' notion of a *protocol*
   send point: an application of a [send]-labelled record field (the
   engine's callback indirection into the GCS layer) that is not
   syntactically inside a continuation passed to a Force-effecting
   callee.  [sync_then t (fun () -> send_payload t ...)] is guarded —
   the send happens after durability — while a bare [send_payload]
   after an append is not; the property propagates through calls that
   occur outside such continuations.

   The direct scan is a visitor on the shared walk (Walk.visit), which
   also records, over whole units, every record type that receives a
   field assignment: the write evidence of the ambient-state pass. *)

let persist = 1
let force = 2
let random = 4
let unordered = 8
let phys_eq_value = 16
let sets_state = 32
let unguarded_send = 64

type t = {
  graph : Callgraph.t;
  table : (string, int) Hashtbl.t;  (** per function: its label set *)
  refs : (string, string list) Hashtbl.t;
      (** per function: table functions it references *)
  written : (string, unit) Hashtbl.t;
      (** record type names that receive a [Texp_setfield] anywhere *)
}

let persist_prims = [ "Wlog.append" ]
let force_prims = [ "Wlog.sync"; "Disk.force" ]
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

let summary t key = Option.value ~default:0 (Hashtbl.find_opt t.table key)
let has t key label = summary t key land label <> 0
let add t key labels = Hashtbl.replace t.table key (summary t key lor labels)
let refs t key = match Hashtbl.find_opt t.refs key with Some l -> l | None -> []

(* --- phase A: direct effects and the reference graph ----------------- *)

let visitor t : Walk.visitor =
 fun fn _ e ->
  (match e.exp_desc with
  | Typedtree.Texp_setfield (obj, _, _, _) -> (
    match Cmt_load.head_constr obj.exp_env obj.exp_type with
    | Some (name, _, _) -> Hashtbl.replace t.written name ()
    | None -> ())
  | _ -> ());
  match fn with
  | None -> ()
  | Some (fn : Callgraph.fn) -> (
    let add = add t fn.f_key in
    let caller_unit = fn.f_scope in
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
      let names = Callgraph.prim_names t.graph ~caller_unit p in
      let mem prims = List.exists (fun n -> List.mem n prims) names in
      if mem persist_prims then add persist;
      if mem force_prims then add force;
      if List.exists is_random_name names then add random;
      if
        List.mem (Callgraph.canonical t.graph ~caller_unit p) unordered_prims
        || mem unordered_prims
      then add unordered;
      if is_transition_path p then add sets_state;
      match Callgraph.resolve t.graph ~caller_unit p with
      | Some g when g.f_key <> fn.f_key ->
        Hashtbl.replace t.refs fn.f_key (g.f_key :: refs t fn.f_key)
      | Some _ | None -> ())
    | Typedtree.Texp_setfield (_, _, _, v)
      when Cmt_load.has_type "engine_state" v.exp_type ->
      add sets_state
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      when Cmt_load.stdlib_ident p [ "=="; "!=" ]
           && List.exists
                (function
                  | _, Some (a : Typedtree.expression) ->
                    Cmt_load.has_type "Value.t" a.exp_type
                  | _, None -> false)
                args ->
      add phys_eq_value
    | _ -> ())

(* --- phase B: unguarded sends ---------------------------------------- *)

let is_fun_literal (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* What applying [f] does, and the table function it resolves to: the
   callee's labels, with the storage primitives themselves counted as
   Persist and Force.  A Force callee runs function-literal arguments
   as its continuation (the prims directly, the engine's [sync_then]
   wrappers through their inferred Force). *)
let callee t ~caller_unit (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (p, _, _) ->
    let names = Callgraph.prim_names t.graph ~caller_unit p in
    let prim prims label =
      if List.exists (fun n -> List.mem n prims) names then label else 0
    in
    let resolved = Callgraph.resolve t.graph ~caller_unit p in
    let labels =
      match resolved with Some g -> summary t g.Callgraph.f_key | None -> 0
    in
    (labels lor prim persist_prims persist lor prim force_prims force, resolved)
  | _ -> (0, None)

(* The fold over one body with the "guarded" context: inside a force
   continuation, sends and references are covered by the force. *)
let scan_unguarded t (fn : Callgraph.fn) =
  let direct = ref false in
  let rs = ref [] in
  let caller_unit = fn.f_scope in
  let transfer go guarded () (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      (match Callgraph.resolve t.graph ~caller_unit p with
      | Some g when g.Callgraph.f_key <> fn.Callgraph.f_key ->
        if not guarded then rs := g.Callgraph.f_key :: !rs
      | Some _ | None -> ());
      Some ()
    | Typedtree.Texp_apply (f, args) ->
      (match f.exp_desc with
      | Typedtree.Texp_field (obj, _, lbl) when lbl.lbl_name = "send" ->
        if not guarded then direct := true;
        go guarded () obj
      | _ -> go guarded () f);
      let forces = fst (callee t ~caller_unit f) land force <> 0 in
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some a -> go (guarded || (forces && is_fun_literal a)) () a
          | None -> ())
        args;
      Some ()
    | _ -> None
  in
  Walk.descend transfer false fn.Callgraph.f_expr;
  (!direct, List.rev !rs)

(* --- the fixpoints ---------------------------------------------------- *)

(* One shared walk runs the direct scan next to the other passes'
   [visitors]; then the labels propagate along references. *)
let infer (graph : Callgraph.t) visitors =
  let t =
    { graph; table = Hashtbl.create 256; refs = Hashtbl.create 256;
      written = Hashtbl.create 32 }
  in
  Walk.visit graph (visitor t :: visitors);
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t.refs;
  let fns = Callgraph.table_fns graph in
  let propagate refs (fn : Callgraph.fn) =
    let own = summary t fn.f_key in
    let joined =
      List.fold_left (fun m g -> m lor summary t g) own (refs fn.f_key)
    in
    Hashtbl.replace t.table fn.f_key joined;
    joined <> own
  in
  Callgraph.fixpoint (propagate (refs t)) fns;
  (* Unguarded sends: the guarded-continuation scan needs the Force
     results above, so it runs second, on its own edge set — along
     which only UnguardedSend propagates (the other labels are already
     saturated). *)
  let unguarded_refs = Hashtbl.create 256 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      let direct, rs = scan_unguarded t fn in
      if direct then add t fn.f_key unguarded_send;
      Hashtbl.replace unguarded_refs fn.f_key rs)
    fns;
  Callgraph.fixpoint (propagate (Hashtbl.find unguarded_refs)) fns;
  t
