(* Spec drift: the transition graph compiled into the core vs Figure 4.

   The extraction is a small abstract interpretation over each core
   function with one abstract value: the set S of [engine_state]
   constructors the replica may currently be in (⊤ = all of them).
   S is refined by [match] on an [engine_state]-typed scrutinee (each
   case narrows S to its enumerated constructors) and by
   [if ... t.state = C ...] conditions; it is updated by transitions:

   - [set_state t C] (a call to a function named [set_state] with a
     constant constructor argument) emits the edges S × {C} and sets
     S := {C};
   - a direct [x.state <- C] field assignment of [engine_state] type is
     treated the same; with a non-constant right-hand side it resets
     S := ⊤;
   - a call to any function that may transition (the SetsState effect)
     resets S := ⊤ afterwards.

   Branches are walked independently and rejoin by union; function
   literals are walked under the S at their occurrence (the engine runs
   its sync continuations in the state that requested the sync).

   Entry sets: a function observed only at call sites inherits the
   union of S at those sites ([end_of_retrans] is only ever reached
   under [t.state = Exchange_actions], so its transitions leave
   Exchange_actions, not ⊤); a root — no table callers, or referenced
   from outside the extraction scope — starts at ⊤, as does anything
   the fixpoint never reaches.  This is what keeps the clean tree's
   extracted graph equal to the Figure 4 table rather than a blur of
   ⊤ × targets. *)

module SSet = Set.Make (String)

let rule = "spec-drift"

let in_scope prefixes src =
  List.exists (fun p -> Cmt_load.has_prefix p src) prefixes

(* --- pattern and condition refinement -------------------------------- *)

(* The engine_state constructors named by a pattern; None = no
   refinement (wildcard or binder). *)
let rec pat_constructors : type k. k Typedtree.general_pattern -> SSet.t option
    =
 fun pat ->
  match pat.pat_desc with
  | Typedtree.Tpat_value arg ->
    pat_constructors (arg :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_construct (_, cd, _, _) ->
    Some (SSet.singleton cd.cstr_name)
  | Typedtree.Tpat_or (a, b, _) -> (
    match (pat_constructors a, pat_constructors b) with
    | Some x, Some y -> Some (SSet.union x y)
    | _ -> None)
  | Typedtree.Tpat_alias (p, _, _) -> pat_constructors p
  | _ -> None

let constr_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, cd, []) when Cmt_load.is_engine_state e.exp_type
    ->
    Some cd.cstr_name
  | _ -> None

(* [Some cs] when the condition implies the state is in [cs]. *)
let rec cond_states (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply
      ( { exp_desc = Typedtree.Texp_ident (p, _, _); _ },
        [ (_, Some a); (_, Some b) ] ) -> (
    match Cmt_load.normalize (Cmt_load.path_name p) with
    | "&&" -> (
      match (cond_states a, cond_states b) with
      | Some x, Some y -> Some (SSet.inter x y)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None)
    | "=" | "==" -> (
      match (constr_of a, constr_of b) with
      | Some c, _ when Cmt_load.is_engine_state b.exp_type ->
        Some (SSet.singleton c)
      | _, Some c when Cmt_load.is_engine_state a.exp_type ->
        Some (SSet.singleton c)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* --- the walker ------------------------------------------------------- *)

type ctx = {
  eff : Effects.t;
  top : SSet.t;
  entries : (string, SSet.t) Hashtbl.t;  (** per core fn: entry set *)
  core : string list;
  mutable emit : (string * string * Location.t) list;  (** from, to, site *)
  mutable contribute : bool;  (** record call-site S into [entries]? *)
  mutable changed : bool;
}

let entry ctx key =
  match Hashtbl.find_opt ctx.entries key with
  | Some s -> s
  | None -> SSet.empty

let add_entry ctx key s =
  let cur = entry ctx key in
  let next = SSet.union cur s in
  if not (SSet.equal cur next) then begin
    Hashtbl.replace ctx.entries key next;
    ctx.changed <- true
  end

let target_of_args args =
  List.fold_left
    (fun acc (_, arg) ->
      match acc with
      | Some _ -> acc
      | None -> ( match arg with Some a -> constr_of a | None -> None))
    None args

let walk_fn ctx (fn : Callgraph.fn) s0 =
  let caller_unit = fn.Callgraph.f_unit.Cmt_load.u_name in
  let graph = ctx.eff.Effects.graph in
  let transition s target loc =
    SSet.iter (fun from_ -> ctx.emit <- (from_, target, loc) :: ctx.emit) s;
    SSet.singleton target
  in
  let rec walk s (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ifthenelse (c, then_, else_) ->
      let s = walk s c in
      let s_then =
        match cond_states c with Some cs -> SSet.inter s cs | None -> s
      in
      let st = walk s_then then_ in
      let se = match else_ with Some e' -> walk s e' | None -> s in
      SSet.union st se
    | Typedtree.Texp_match (scrut, cases, _) ->
      let s = walk s scrut in
      let refines = Cmt_load.is_engine_state scrut.exp_type in
      List.fold_left
        (fun acc (c : Typedtree.computation Typedtree.case) ->
          let s_case =
            if refines then
              match pat_constructors c.Typedtree.c_lhs with
              | Some cs -> SSet.inter s cs
              | None -> s
            else s
          in
          let s_case =
            match c.Typedtree.c_guard with
            | Some g -> walk s_case g
            | None -> s_case
          in
          SSet.union acc (walk s_case c.Typedtree.c_rhs))
        SSet.empty cases
    | Typedtree.Texp_try (body, cases) ->
      let s = walk s body in
      List.fold_left
        (fun acc (c : Typedtree.value Typedtree.case) ->
          SSet.union acc (walk s c.Typedtree.c_rhs))
        s cases
    | Typedtree.Texp_function { cases; _ } ->
      (* a literal: its body runs under the S of its occurrence; what it
         leaves behind does not flow back to the definition site *)
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          ignore (walk s c.Typedtree.c_rhs))
        cases;
      s
    | Typedtree.Texp_setfield (obj, _, _lbl, v)
      when Cmt_load.is_engine_state v.exp_type ->
      let s = walk (walk s obj) v in
      (match constr_of v with
      | Some target -> transition s target e.exp_loc
      | None -> ctx.top)
    | Typedtree.Texp_apply (f, args) -> (
      match f.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
        let resolved = Callgraph.resolve graph ~caller_unit p in
        (* record the call-site S as the callee's entry set *)
        (match resolved with
        | Some g
          when ctx.contribute
               && in_scope ctx.core g.Callgraph.f_unit.Cmt_load.u_src ->
          add_entry ctx g.Callgraph.f_key s
        | Some _ | None -> ());
        let s_args =
          List.fold_left
            (fun acc (_, arg) ->
              match arg with Some a -> walk acc a | None -> acc)
            s args
        in
        if Effects.is_transition_path p then
          match target_of_args args with
          | Some target -> transition s target e.exp_loc
          | None -> ctx.top
        else
          let sets_state =
            match resolved with
            | Some g ->
              (Effects.find ctx.eff g.Callgraph.f_key).Effects.e_sets_state
            | None -> false
          in
          if sets_state then ctx.top else s_args)
      | _ ->
        let s = walk s f in
        List.fold_left
          (fun acc (_, arg) ->
            match arg with Some a -> walk acc a | None -> acc)
          s args)
    | Typedtree.Texp_ident (p, _, _) ->
      (* a bare reference (a closure being passed): it may run under
         any state its consumer chooses — contribute ⊤, not S *)
      (match Callgraph.resolve graph ~caller_unit p with
      | Some g
        when ctx.contribute
             && g.Callgraph.f_key <> fn.Callgraph.f_key
             && in_scope ctx.core g.Callgraph.f_unit.Cmt_load.u_src ->
        add_entry ctx g.Callgraph.f_key ctx.top
      | Some _ | None -> ());
      s
    | _ -> List.fold_left walk s (Callgraph.subexprs e)
  in
  ignore (walk s0 fn.Callgraph.f_expr)

(* --- extraction ------------------------------------------------------- *)

let extract (eff : Effects.t) ~core ~all_states =
  let graph = eff.Effects.graph in
  let top = SSet.of_list all_states in
  let ctx =
    { eff; top; entries = Hashtbl.create 64; core; emit = []; contribute = true;
      changed = false }
  in
  let core_fns =
    List.filter_map
      (fun key ->
        match Callgraph.find graph key with
        | Some fn when in_scope core fn.Callgraph.f_unit.Cmt_load.u_src ->
          Some fn
        | Some _ | None -> None)
      graph.Callgraph.keys
  in
  (* Roots: referenced from outside the scope, or not referenced at all. *)
  let referenced = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let inside =
        match Callgraph.find graph key with
        | Some fn -> in_scope core fn.Callgraph.f_unit.Cmt_load.u_src
        | None -> false
      in
      List.iter
        (fun g ->
          if g <> key then
            Hashtbl.replace referenced g
              (inside && (match Hashtbl.find_opt referenced g with
                          | Some false -> false
                          | _ -> true)))
        (Effects.refs eff key))
    graph.Callgraph.keys;
  List.iter
    (fun fn ->
      match Hashtbl.find_opt referenced fn.Callgraph.f_key with
      | None | Some false ->
        (* no caller at all, or some caller outside the scope *)
        add_entry ctx fn.Callgraph.f_key top
      | Some true -> ())
    core_fns;
  (* Entry-set fixpoint: propagate call-site state sets (the state-set
     lattice is finite, so it terminates). *)
  Callgraph.fixpoint
    (fun fn ->
      ctx.changed <- false;
      let e = entry ctx fn.Callgraph.f_key in
      if not (SSet.is_empty e) then walk_fn ctx fn e;
      ctx.changed)
    core_fns;
  (* Final pass: emit edges; unreached functions walk under ⊤. *)
  ctx.contribute <- false;
  ctx.emit <- [];
  List.iter
    (fun fn ->
      let e = entry ctx fn.Callgraph.f_key in
      let e = if SSet.is_empty e then top else e in
      walk_fn ctx fn e)
    core_fns;
  (* Dedup to the first (in walk order) site per edge, sorted. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f, t, loc) ->
      if not (Hashtbl.mem seen (f, t)) then Hashtbl.replace seen (f, t) loc)
    (List.rev ctx.emit);
  Hashtbl.fold (fun (f, t) loc acc -> ((f, t), loc) :: acc) seen []
  |> List.sort compare

(* --- the diff (pure, unit-testable) ----------------------------------- *)

let expand_spec ~all_states spec =
  List.concat_map
    (fun (from_, target) ->
      match from_ with
      | Some s -> [ (s, target) ]
      | None -> List.map (fun s -> (s, target)) all_states)
    spec
  |> List.sort_uniq compare

(* (code-only, spec-only) *)
let diff ~spec_pairs ~code_pairs =
  let spec = List.sort_uniq compare spec_pairs in
  let code = List.sort_uniq compare code_pairs in
  ( List.filter (fun e -> not (List.mem e spec)) code,
    List.filter (fun e -> not (List.mem e code)) spec )
