(* Procedure key-space footprint inference.

   The replication paper's active transactions (§6) are stored
   procedures: deterministic functions from database state and
   arguments to an update list, re-executed at the same global-order
   position on every replica.  Two forthcoming consumers need static
   facts about them:

   - the parallel-apply scheduler (ROADMAP item 2) needs each action's
     *predicted* write keys before execution, so independent actions
     can apply concurrently — the data-item routing assumption of the
     partial-replication literature;
   - the §6 relaxed semantics skip validation for procedures that only
     emit commutative ops, which is a per-procedure classification.

   This pass finds every [Procedure.register] site in the loaded units
   (the builtins in lib/db/procedure.ml register through the same
   function fixtures and tests do), abstracts each registered body over
   the [Keyspace] lattice, and produces per procedure:

   (a) symbolic read and write sets — writes from constructed [Op.t]
       values, reads from [Database.get]/[timestamp]/[read] lookups,
       both propagated through helper calls by substituting call-site
       actuals into the callee's summary;

   (b) a determinism verdict from the [Effects] fixpoint — any
       reachable Random/wall-clock use, unordered [Hashtbl] iteration,
       physical equality on [Value.t], or reference to an ambient
       mutable global makes the body non-re-executable;

   (c) a commutativity class: a procedure is validation-skippable iff
       every op it can emit satisfies [Op.is_commutative] AND no op is
       constructed under a branch whose condition depends on a database
       read.  The read-guard refinement is what separates [restock]
       (reads only feed the output) from [transfer] (the balance check
       guards the updates): re-ordering transfer against a concurrent
       write to the same account can change whether its ops are emitted
       at all, so emitting them early is not safe even though [Add]
       itself commutes.

   Declared footprints ([register ?footprint]) are parsed from the
   register site's literal argument and diffed against the inference —
   a disagreement is a spec-drift-style finding.  The driver writes the
   whole thing as the golden-diffed procedure-manifest.json, and
   [Check.Procguard] re-validates the declarations at run time.

   Soundness: the abstraction errs upward.  Any key expression the
   evaluator cannot bound is Top; unanalyzable bodies get Top sets; the
   runtime validator then checks the concrete executions against the
   declarations the lint proved consistent with inference. *)

type op_write = {
  w_key : Keyspace.abs;
  w_commutative : bool;  (* the op constructor satisfies Op.is_commutative *)
  w_guarded : bool;  (* constructed under a db-read-dependent branch *)
}

type report = {
  r_name : string;
  r_src : string;  (* source file of the body *)
  r_body_loc : Location.t;
  r_reg_loc : Location.t;  (* the register site, for drift findings *)
  r_reads : Keyspace.abs list;
  r_writes : Keyspace.abs list;
  r_commutative : bool;
  r_nondet : string list;  (* nondeterminism sources; [] = deterministic *)
  r_declared : (Keyspace.abs list * Keyspace.abs list) option;  (* reads, writes *)
}

(* --- shared context --------------------------------------------------- *)

type helper_summary = {
  h_reads : Keyspace.abs list;
  h_writes : op_write list;
  h_ret : Keyspace.abs;  (* abstraction of the returned value as a key *)
  h_reads_db : bool;
}

let empty_helper =
  { h_reads = []; h_writes = []; h_ret = Keyspace.Top; h_reads_db = false }

type ctx = {
  eff : Effects.t;
  helpers : (string, helper_summary option) Hashtbl.t;
      (* [None] while in progress: recursion bottoms out at the empty
         summary (one-pass approximation; a recursive helper that
         grows its own footprint lands in Top via the call below) *)
  ambient : (string * string) list;  (* mutable globals: f_key, kind *)
}

let read_prims = [ "Database.get"; "Database.timestamp"; "Database.read" ]
let commutative_ops = [ "Add"; "Set_if_newer" ]
let op_constructors = [ "Set"; "Add"; "Remove"; "Set_if_newer" ]

let is_op_type ty =
  match Cmt_load.type_constr_name ty with
  | Some name -> name = "Op.t" || Filename.check_suffix name ".Op.t"
  | None -> false

let canonical ctx ~caller_unit p =
  Callgraph.canonical ctx.eff.Effects.graph ~caller_unit p

let resolve ctx ~caller_unit p =
  Callgraph.resolve ctx.eff.Effects.graph ~caller_unit p

let positional args =
  List.filter_map
    (function
      | Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a
      | _ -> None)
    args

(* --- abstract evaluation of key expressions --------------------------- *)

type st = {
  mutable reads : Keyspace.abs list;
  mutable writes : op_write list;
  mutable tainted : Ident.t list;
}

let lookup env id =
  match List.find_opt (fun (i, _) -> Ident.same i id) env with
  | Some (_, a) -> a
  | None -> Keyspace.Top

let rec helper_of ctx (fn : Callgraph.fn) =
  match Hashtbl.find_opt ctx.helpers fn.Callgraph.f_key with
  | Some (Some s) -> s
  | Some None -> empty_helper (* recursion: bottom out *)
  | None ->
    Hashtbl.replace ctx.helpers fn.Callgraph.f_key None;
    let caller_unit = fn.Callgraph.f_unit.Cmt_load.u_name in
    (* Peel curried parameters: each single-var function layer binds
       the next Param index. *)
    let rec peel i env (e : Typedtree.expression) =
      match e.exp_desc with
      | Typedtree.Texp_function
          { cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ } -> (
        match c_lhs.Typedtree.pat_desc with
        | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
          peel (i + 1) ((id, Keyspace.Param i) :: env) c_rhs
        | Typedtree.Tpat_any -> peel (i + 1) env c_rhs
        | _ -> (env, e))
      | _ -> (env, e)
    in
    let env, body = peel 0 [] fn.Callgraph.f_expr in
    let st = { reads = []; writes = []; tainted = [] } in
    walk ctx ~caller_unit st env ~guard:false body;
    let s =
      {
        h_reads = Keyspace.normalize st.reads;
        h_writes = st.writes;
        h_ret = eval ctx ~caller_unit env body;
        h_reads_db = st.reads <> [];
      }
    in
    Hashtbl.replace ctx.helpers fn.Callgraph.f_key (Some s);
    s

and eval ctx ~caller_unit env (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Keyspace.Const s
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> lookup env id
  | Typedtree.Texp_let (_, _, body) -> eval ctx ~caller_unit env body
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
    -> (
    let pos = positional args in
    match (canonical ctx ~caller_unit p, pos) with
    | "^", [ a; b ] ->
      Keyspace.concat (eval ctx ~caller_unit env a) (eval ctx ~caller_unit env b)
    | ("string_of_int" | "Int.to_string"), [ a ] ->
      (* the runtime key rendering of an Int argument — keeps a
         [Value.Int]-bound parameter abstract instead of Top *)
      eval ctx ~caller_unit env a
    | _, _ -> (
      match resolve ctx ~caller_unit p with
      | Some fn ->
        let s = helper_of ctx fn in
        let actuals = List.map (eval ctx ~caller_unit env) pos in
        Keyspace.subst actuals s.h_ret
      | None -> Keyspace.Top))
  | _ -> Keyspace.Top

(* --- taint: does an expression depend on a database read? ------------- *)

and mentions_read ctx ~caller_unit tainted (e : Typedtree.expression) =
  let found = ref false in
  let rec go (e : Typedtree.expression) =
    if not !found then begin
      (match e.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
        (match p with
        | Path.Pident id when List.exists (Ident.same id) tainted ->
          found := true
        | _ -> ());
        if List.mem (canonical ctx ~caller_unit p) read_prims then found := true
        else
          match resolve ctx ~caller_unit p with
          | Some fn -> (
            match Hashtbl.find_opt ctx.helpers fn.Callgraph.f_key with
            | Some (Some s) when s.h_reads_db -> found := true
            | Some _ -> ()
            | None -> if (helper_of ctx fn).h_reads_db then found := true)
          | None -> ())
      | _ -> ());
      if not !found then List.iter go (Callgraph.subexprs e)
    end
  in
  go e;
  !found

(* --- the body walk ---------------------------------------------------- *)

and taint_pattern_vars : type k. st -> k Typedtree.general_pattern -> unit =
 fun st p ->
  (match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> st.tainted <- id :: st.tainted
  | Typedtree.Tpat_alias (_, id, _) -> st.tainted <- id :: st.tainted
  | _ -> ());
  let it =
    {
      Tast_iterator.default_iterator with
      pat = (fun _ q -> taint_pattern_vars st q);
    }
  in
  Tast_iterator.default_iterator.pat it p

and walk ctx ~caller_unit (st : st) env ~guard (e : Typedtree.expression) =
  let eval' = eval ctx ~caller_unit env in
  match e.exp_desc with
  | Typedtree.Texp_let (_, vbs, body) ->
    List.iter (fun (vb : Typedtree.value_binding) ->
        walk ctx ~caller_unit st env ~guard vb.vb_expr)
      vbs;
    let env' =
      List.fold_left
        (fun acc (vb : Typedtree.value_binding) ->
          match vb.vb_pat.pat_desc with
          | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
            (id, eval ctx ~caller_unit env vb.vb_expr) :: acc
          | _ -> acc)
        env vbs
    in
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        if mentions_read ctx ~caller_unit st.tainted vb.vb_expr then
          taint_pattern_vars st vb.vb_pat)
      vbs;
    walk ctx ~caller_unit st env' ~guard body
  | Typedtree.Texp_ifthenelse (cond, then_, else_) ->
    walk ctx ~caller_unit st env ~guard cond;
    let g = guard || mentions_read ctx ~caller_unit st.tainted cond in
    walk ctx ~caller_unit st env ~guard:g then_;
    Option.iter (walk ctx ~caller_unit st env ~guard:g) else_
  | Typedtree.Texp_match (scrut, cases, _) ->
    walk ctx ~caller_unit st env ~guard scrut;
    let g = guard || mentions_read ctx ~caller_unit st.tainted scrut in
    List.iter
      (fun (c : Typedtree.computation Typedtree.case) ->
        if g then taint_pattern_vars st c.Typedtree.c_lhs;
        Option.iter (walk ctx ~caller_unit st env ~guard:g) c.Typedtree.c_guard;
        walk ctx ~caller_unit st env ~guard:g c.Typedtree.c_rhs)
      cases
  | Typedtree.Texp_construct (_, cstr, args)
    when List.mem cstr.Types.cstr_name op_constructors && is_op_type e.exp_type
    -> (
    match args with
    | key :: rest ->
      st.writes <-
        {
          w_key = eval' key;
          w_commutative = List.mem cstr.Types.cstr_name commutative_ops;
          w_guarded = guard;
        }
        :: st.writes;
      List.iter (walk ctx ~caller_unit st env ~guard) (key :: rest)
    | [] -> ())
  | Typedtree.Texp_apply
      (({ exp_desc = Typedtree.Texp_ident (p, _, _); _ } as f), args) -> (
    walk ctx ~caller_unit st env ~guard f;
    List.iter
      (fun (_, a) -> Option.iter (walk ctx ~caller_unit st env ~guard) a)
      args;
    let pos = positional args in
    match canonical ctx ~caller_unit p with
    | ("Database.get" | "Database.timestamp") -> (
      match pos with
      | _ :: key :: _ -> st.reads <- eval' key :: st.reads
      | _ -> st.reads <- Keyspace.Top :: st.reads)
    | "Database.read" -> (
      match pos with
      | _ :: keys :: _ ->
        let rec list_elems (e : Typedtree.expression) =
          match e.exp_desc with
          | Typedtree.Texp_construct (_, { cstr_name = "::"; _ }, [ hd; tl ])
            ->
            eval' hd :: list_elems tl
          | Typedtree.Texp_construct (_, { cstr_name = "[]"; _ }, []) -> []
          | _ -> [ Keyspace.Top ]
        in
        st.reads <- list_elems keys @ st.reads
      | _ -> st.reads <- Keyspace.Top :: st.reads)
    | _ -> (
      match resolve ctx ~caller_unit p with
      | Some fn ->
        let s = helper_of ctx fn in
        let actuals = List.map eval' pos in
        st.reads <- Keyspace.subst_set actuals s.h_reads @ st.reads;
        st.writes <-
          List.map
            (fun w ->
              {
                w with
                w_key = Keyspace.subst actuals w.w_key;
                w_guarded = w.w_guarded || guard;
              })
            s.h_writes
          @ st.writes
      | None -> ()))
  | _ -> List.iter (walk ctx ~caller_unit st env ~guard) (Callgraph.subexprs e)

(* --- entry analysis: the two-stage procedure shape -------------------- *)

(* Bind the elements of the [Value.t list] argument pattern:
   [\[ Value.Text a; Value.Int n; whole \]] binds a -> Param 0,
   n -> Param 1, whole -> Param 2 (the runtime key rendering of a
   [Value.t] is [value_to_key], which both [Kparam] concretization and
   the [string_of_int] case above agree with). *)
let rec bind_list_pattern :
    type k. int -> k Typedtree.general_pattern -> (Ident.t * Keyspace.abs) list
    =
 fun i p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_construct (_, { cstr_name = "::"; _ }, [ elem; rest ], _) ->
    bind_element i elem @ bind_list_pattern (i + 1) rest
  | Typedtree.Tpat_alias (q, _, _) -> bind_list_pattern i q
  | _ -> []

and bind_element i (p : Typedtree.value Typedtree.general_pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ (id, Keyspace.Param i) ]
  | Typedtree.Tpat_alias (q, id, _) -> (id, Keyspace.Param i) :: bind_element i q
  | Typedtree.Tpat_construct (_, _, subpats, _) ->
    List.concat_map
      (fun (sp : Typedtree.value Typedtree.general_pattern) ->
        match sp.Typedtree.pat_desc with
        | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
          [ (id, Keyspace.Param i) ]
        | _ -> [])
      subpats
  | _ -> []

type inference = {
  i_reads : Keyspace.abs list;
  i_writes : Keyspace.abs list;
  i_commutative : bool;
}

let analyze_body ctx ~caller_unit (body : Typedtree.expression) =
  let st = { reads = []; writes = []; tainted = [] } in
  (match body.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_rhs = db_rhs; _ } ]; _ } -> (
    match db_rhs.exp_desc with
    | Typedtree.Texp_function { cases; _ } ->
      (* the canonical [fun db -> function | [args] -> ...] shape *)
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          let env = bind_list_pattern 0 c.Typedtree.c_lhs in
          Option.iter
            (walk ctx ~caller_unit st env ~guard:false)
            c.Typedtree.c_guard;
          walk ctx ~caller_unit st env ~guard:false c.Typedtree.c_rhs)
        cases
    | _ ->
      (* unrecognized shape: analyze with no parameter binding — every
         argument-derived key degrades to Top (sound, imprecise) *)
      walk ctx ~caller_unit st [] ~guard:false db_rhs)
  | _ -> walk ctx ~caller_unit st [] ~guard:false body);
  {
    i_reads = Keyspace.normalize st.reads;
    i_writes = Keyspace.normalize (List.map (fun w -> w.w_key) st.writes);
    i_commutative =
      List.for_all (fun w -> w.w_commutative && not w.w_guarded) st.writes;
  }

(* --- determinism verdict ---------------------------------------------- *)

let nondet_sources ctx (fn : Callgraph.fn) =
  let eff = Effects.find ctx.eff fn.Callgraph.f_key in
  (* Transitive reference closure for ambient-state reachability — the
     effect fixpoint has already saturated the boolean labels, but the
     ambient set is per-binding, so walk the edges here. *)
  let seen =
    Callgraph.reachable ~succ:(Effects.refs ctx.eff) [ fn.Callgraph.f_key ]
  in
  let ambient =
    List.filter_map
      (fun (key, kind) ->
        if List.mem key seen then
          Some
            (Printf.sprintf "ambient state %s (%s)" (Cmt_load.normalize key)
               kind)
        else None)
      ctx.ambient
  in
  List.sort compare
    ((if eff.Effects.e_random then [ "random or wall-clock read" ] else [])
    @ (if eff.Effects.e_unordered then [ "unordered hash iteration" ] else [])
    @ (if eff.Effects.e_phys_eq_value then
         [ "physical equality on Value.t" ]
       else [])
    @ ambient)

(* --- register-site discovery ------------------------------------------ *)

let string_arg (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | _ -> None

(* The declared footprint is a record literal of list literals of
   [key_pattern] constructors; anything else degrades to Top (which the
   drift check then reports against a precise inference — a declaration
   the lint cannot read is as good as a wrong one). *)
let rec parse_pattern ctx ~caller_unit (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, cstr, args) -> (
    match (cstr.Types.cstr_name, args) with
    | "Kconst", [ a ] -> (
      match string_arg a with Some s -> Keyspace.Const s | None -> Keyspace.Top)
    | "Kparam", [ { exp_desc = Typedtree.Texp_constant (Asttypes.Const_int i); _ } ]
      ->
      Keyspace.Param i
    | "Kconcat", [ parts ] ->
      List.fold_left
        (fun acc p -> Keyspace.concat acc (parse_pattern ctx ~caller_unit p))
        (Keyspace.Const "")
        (pattern_list ctx ~caller_unit parts)
    | "Kany", [] -> Keyspace.Top
    | _ -> Keyspace.Top)
  | _ -> Keyspace.Top

and pattern_list ctx ~caller_unit (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, { cstr_name = "::"; _ }, [ hd; tl ]) ->
    hd :: pattern_list ctx ~caller_unit tl
  | _ -> []

let rec parse_footprint ctx ~caller_unit (e : Typedtree.expression) =
  (* The optional argument reaches the apply node wrapped: [Some
     record] when passed, a [None] construct when omitted. *)
  match e.exp_desc with
  | Typedtree.Texp_construct (_, { cstr_name = "Some"; _ }, [ inner ]) ->
    parse_footprint ctx ~caller_unit inner
  | Typedtree.Texp_construct (_, { cstr_name = "None"; _ }, []) -> None
  | Typedtree.Texp_record { fields; _ } ->
    let field name =
      Array.to_list fields
      |> List.find_map (fun ((lbl : Types.label_description), def) ->
             if lbl.Types.lbl_name = name then
               match def with
               | Typedtree.Overridden (_, fe) ->
                 Some
                   (Keyspace.normalize
                      (List.map
                         (parse_pattern ctx ~caller_unit)
                         (pattern_list ctx ~caller_unit fe)))
               | Typedtree.Kept _ -> None
             else None)
    in
    Some
      ( (match field "reads" with Some l -> l | None -> [ Keyspace.Top ]),
        match field "writes" with Some l -> l | None -> [ Keyspace.Top ] )
  | _ -> Some ([ Keyspace.Top ], [ Keyspace.Top ])

let analyze (eff : Effects.t) =
  let graph = eff.Effects.graph in
  let ctx =
    { eff; helpers = Hashtbl.create 64; ambient = Globals.mutable_globals graph }
  in
  let reports = ref [] in
  let scan_unit (u : Cmt_load.unit_info) =
    let caller_unit = u.Cmt_load.u_name in
    let expr_hook it (e : Typedtree.expression) =
      (match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply
          ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
        when List.mem "Procedure.register"
               (canonical ctx ~caller_unit p
               :: Callgraph.prim_names graph ~caller_unit p) -> (
        let pos = positional args in
        (* [register reg "name" body]: a forwarding site whose name is
           not a literal (Replica.register_procedure) carries no
           procedure of its own and is skipped — the actual
           registrations behind it are themselves register sites. *)
        match pos with
        | [ _reg; name_arg; body_arg ] -> (
          match string_arg name_arg with
          | Some name -> (
            let declared =
              List.find_map
                (fun (lbl, a) ->
                  match (lbl, a) with
                  | ( (Asttypes.Labelled "footprint" | Asttypes.Optional "footprint"),
                      Some fe ) ->
                    parse_footprint ctx ~caller_unit fe
                  | _ -> None)
                args
            in
            let body_fn =
              match body_arg.Typedtree.exp_desc with
              | Typedtree.Texp_ident (bp, _, _) -> resolve ctx ~caller_unit bp
              | _ -> None
            in
            match body_fn with
            | Some fn ->
              let inf =
                analyze_body ctx
                  ~caller_unit:fn.Callgraph.f_unit.Cmt_load.u_name
                  fn.Callgraph.f_expr
              in
              reports :=
                {
                  r_name = name;
                  r_src = fn.Callgraph.f_unit.Cmt_load.u_src;
                  r_body_loc = fn.Callgraph.f_loc;
                  r_reg_loc = e.Typedtree.exp_loc;
                  r_reads = inf.i_reads;
                  r_writes = inf.i_writes;
                  r_commutative = inf.i_commutative;
                  r_nondet = nondet_sources ctx fn;
                  r_declared = declared;
                }
                :: !reports
            | None ->
              (* literal or unresolvable body: record it with Top sets
                 so the manifest is honest about the blind spot *)
              reports :=
                {
                  r_name = name;
                  r_src = u.Cmt_load.u_src;
                  r_body_loc = e.Typedtree.exp_loc;
                  r_reg_loc = e.Typedtree.exp_loc;
                  r_reads = [ Keyspace.Top ];
                  r_writes = [ Keyspace.Top ];
                  r_commutative = false;
                  r_nondet = [];
                  r_declared = declared;
                }
                :: !reports)
          | None -> ())
        | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr = expr_hook } in
    it.Tast_iterator.structure it u.Cmt_load.u_str
  in
  List.iter scan_unit graph.Callgraph.units;
  List.sort_uniq
    (fun a b ->
      let c = compare a.r_name b.r_name in
      if c <> 0 then c
      else
        let c = compare a.r_src b.r_src in
        if c <> 0 then c
        else
          compare a.r_reg_loc.Location.loc_start.Lexing.pos_lnum
            b.r_reg_loc.Location.loc_start.Lexing.pos_lnum)
    !reports

(* --- findings --------------------------------------------------------- *)

let set_to_string set = String.concat ", " (List.map Keyspace.to_string set)

let drift_detail ~declared ~inferred =
  let undeclared =
    List.filter (fun k -> not (Keyspace.covers declared k)) inferred
  in
  let stale =
    List.filter
      (fun d ->
        match d with
        | Keyspace.Top -> not (List.exists (Keyspace.equal_abs Keyspace.Top) inferred)
        | d -> not (List.exists (Keyspace.equal_abs d) inferred))
      declared
  in
  if undeclared = [] && stale = [] then None
  else
    Some
      (String.concat "; "
         ((if undeclared <> [] then
             [ "inferred but undeclared: " ^ set_to_string undeclared ]
           else [])
         @
         if stale <> [] then
           [ "declared but never inferred: " ^ set_to_string stale ]
         else []))

let run reports (sink : Diag.sink) =
  List.iter
    (fun r ->
      if List.exists (Keyspace.equal_abs Keyspace.Top) r.r_writes then
        Diag.addf sink ~rule:"procedure-unbounded-footprint" ~loc:r.r_body_loc
          "procedure '%s' has an unbounded (top) write set: a key is \
           computed from data the analysis cannot bound, so the \
           parallel-apply scheduler cannot route this action; derive keys \
           from arguments and literals only"
          r.r_name;
      if r.r_nondet <> [] then
        Diag.addf sink ~rule:"procedure-nondeterminism" ~loc:r.r_body_loc
          "procedure '%s' is not deterministically re-executable: %s; every \
           replica must compute the same updates at the same order position \
           (paper §6)"
          r.r_name
          (String.concat ", " r.r_nondet);
      match r.r_declared with
      | None -> ()
      | Some (dr, dw) ->
        let report kind declared inferred =
          match drift_detail ~declared ~inferred with
          | Some detail ->
            Diag.addf sink ~rule:"procedure-footprint-drift" ~loc:r.r_reg_loc
              "procedure '%s': declared %s footprint {%s} disagrees with the \
               inferred {%s} (%s); fix the declaration or the body — the \
               runtime validator enforces the declaration"
              r.r_name kind (set_to_string declared) (set_to_string inferred)
              detail
          | None -> ()
        in
        report "read" dr r.r_reads;
        report "write" dw r.r_writes)
    reports

(* --- the manifest ------------------------------------------------------ *)

let manifest_json reports =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"version\": \"1\",\n";
  Buffer.add_string b "  \"tool\": \"repro-analysis/procfoot\",\n";
  Buffer.add_string b "  \"procedures\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      let strings set =
        String.concat ", "
          (List.map
             (fun a -> Printf.sprintf "\"%s\"" (Diag.escape (Keyspace.to_string a)))
             set)
      in
      let declared =
        match r.r_declared with
        | None -> "none"
        | Some (dr, dw) ->
          if
            drift_detail ~declared:dr ~inferred:r.r_reads = None
            && drift_detail ~declared:dw ~inferred:r.r_writes = None
          then "agrees"
          else "drift"
      in
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"source\": \"%s\", \"reads\": [%s], \
            \"writes\": [%s], \"commutative\": %b, \"deterministic\": %b, \
            \"nondeterminism\": [%s], \"declared\": \"%s\"}"
           (Diag.escape r.r_name) (Diag.escape r.r_src) (strings r.r_reads)
           (strings r.r_writes) r.r_commutative (r.r_nondet = [])
           (String.concat ", "
              (List.map
                 (fun s -> Printf.sprintf "\"%s\"" (Diag.escape s))
                 r.r_nondet))
           declared))
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
