(* Procedure key-space footprint inference.

   The replication paper's active transactions (§6) are stored
   procedures: deterministic functions from database state and
   arguments to an update list, re-executed at the same global-order
   position on every replica.  The declared footprints, the runtime
   guard and a parallel-apply scheduler (ROADMAP, Deferred) all rest on
   each action's *predicted* keys, known before execution — the
   data-item routing assumption of the partial-replication literature.

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
       mutable global makes the body non-re-executable.

   Declared footprints ([register ?footprint]) are parsed from the
   register site's literal argument and diffed against the inference —
   a disagreement is a spec-drift-style finding.  The driver writes the
   whole thing as the golden-diffed procedure-manifest.json, and
   [Check.Procguard] re-validates the declarations at run time.

   Soundness: the abstraction errs upward.  Any key expression the
   evaluator cannot bound is Top; unanalyzable bodies get Top sets; the
   runtime validator then checks the concrete executions against the
   declarations the lint proved consistent with inference. *)

type report = {
  r_name : string;
  r_src : string;  (* source file of the body *)
  r_body_loc : Location.t;
  r_reg_loc : Location.t;  (* the register site, for drift findings *)
  r_reads : Keyspace.abs list;
  r_writes : Keyspace.abs list;
  r_nondet : string list;  (* nondeterminism sources; [] = deterministic *)
  r_declared : (Keyspace.abs list * Keyspace.abs list) option;  (* reads, writes *)
}

(* --- shared context --------------------------------------------------- *)

type helper_summary = {
  h_reads : Keyspace.abs list;
  h_writes : Keyspace.abs list;
  h_ret : Keyspace.abs;  (* abstraction of the returned value as a key *)
}

let empty_helper = { h_reads = []; h_writes = []; h_ret = Keyspace.Top }

type ctx = {
  eff : Effects.t;
  helpers : (string, helper_summary option) Hashtbl.t;
      (* [None] while in progress: recursion bottoms out at the empty
         summary (one-pass approximation; a recursive helper that
         grows its own footprint lands in Top via the call below) *)
  ambient : (string * string) list;  (* mutable globals: f_key, kind *)
}

let op_constructors = [ "Set"; "Add"; "Remove"; "Set_if_newer" ]

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
  mutable writes : Keyspace.abs list;
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
    let caller_unit = fn.Callgraph.f_scope in
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
    let st = { reads = []; writes = [] } in
    walk ctx ~caller_unit st env body;
    let s =
      {
        h_reads = Keyspace.normalize st.reads;
        h_writes = st.writes;
        h_ret = eval ctx ~caller_unit env body;
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

(* --- the body walk ---------------------------------------------------- *)

(* The context is the key environment; the findings accumulate in
   [st]. *)
and walk ctx ~caller_unit (st : st) env (e : Typedtree.expression) =
  let transfer go env () (e : Typedtree.expression) =
    let walk e = go env () e in
    let eval' = eval ctx ~caller_unit env in
    match e.exp_desc with
    | Typedtree.Texp_let (_, vbs, body) ->
      List.iter (fun (vb : Typedtree.value_binding) -> walk vb.vb_expr) vbs;
      let env' =
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
              (id, eval' vb.vb_expr) :: acc
            | _ -> acc)
          env vbs
      in
      Some (go env' () body)
    | Typedtree.Texp_construct (_, cstr, key :: _)
      when List.mem cstr.Types.cstr_name op_constructors
           && Cmt_load.has_type "Op.t" e.exp_type ->
      st.writes <- eval' key :: st.writes;
      None
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      -> (
      List.iter (fun (_, a) -> Option.iter walk a) args;
      let pos = positional args in
      Some
        (match canonical ctx ~caller_unit p with
        | "Database.get" | "Database.timestamp" -> (
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
              List.map (Keyspace.subst actuals) s.h_writes @ st.writes
          | None -> ())))
    | _ -> None
  in
  Walk.descend transfer env e

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

let analyze_body ctx ~caller_unit (body : Typedtree.expression) =
  let st = { reads = []; writes = [] } in
  (match body.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_rhs = db_rhs; _ } ]; _ } -> (
    match db_rhs.exp_desc with
    | Typedtree.Texp_function { cases; _ } ->
      (* the canonical [fun db -> function | [args] -> ...] shape *)
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          let env = bind_list_pattern 0 c.Typedtree.c_lhs in
          Option.iter
            (walk ctx ~caller_unit st env)
            c.Typedtree.c_guard;
          walk ctx ~caller_unit st env c.Typedtree.c_rhs)
        cases
    | _ ->
      (* unrecognized shape: analyze with no parameter binding — every
         argument-derived key degrades to Top (sound, imprecise) *)
      walk ctx ~caller_unit st [] db_rhs)
  | _ -> walk ctx ~caller_unit st [] body);
  (Keyspace.normalize st.reads, Keyspace.normalize st.writes)

(* --- determinism verdict ---------------------------------------------- *)

let nondet_sources ctx (fn : Callgraph.fn) =
  let has = Effects.has ctx.eff fn.Callgraph.f_key in
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
    ((if has Effects.random then [ "random or wall-clock read" ] else [])
    @ (if has Effects.unordered then [ "unordered hash iteration" ] else [])
    @ (if has Effects.phys_eq_value then [ "physical equality on Value.t" ]
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

(* The register sites, in walk order: a visitor on the shared walk
   collects [register reg "name" body] applications as
   (unit, site, name, body, arguments).  A forwarding site whose name is
   not a literal (Replica.register_procedure) carries no procedure of
   its own and is skipped — the actual registrations behind it are
   themselves register sites. *)
let visitor (graph : Callgraph.t) sites : Walk.visitor =
 fun _ u e ->
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
    -> (
    let caller_unit = u.Cmt_load.u_name in
    let names =
      Callgraph.canonical graph ~caller_unit p
      :: Callgraph.prim_names graph ~caller_unit p
    in
    match positional args with
    | [ _reg; name_arg; body_arg ] when List.mem "Procedure.register" names -> (
      match string_arg name_arg with
      | Some name -> sites := (u, e, name, body_arg, args) :: !sites
      | None -> ())
    | _ -> ())
  | _ -> ()

let analyze (eff : Effects.t) sites =
  let ctx = { eff; helpers = Hashtbl.create 64; ambient = Globals.mutable_globals eff } in
  let report (u, (e : Typedtree.expression), name, body_arg, args) =
    let caller_unit = u.Cmt_load.u_name in
    let declared =
      List.find_map
        (fun (lbl, a) ->
          match (lbl, a) with
          | (Asttypes.Labelled "footprint" | Asttypes.Optional "footprint"), Some fe
            ->
            parse_footprint ctx ~caller_unit fe
          | _ -> None)
        args
    in
    let body_fn =
      match body_arg.Typedtree.exp_desc with
      | Typedtree.Texp_ident (bp, _, _) -> resolve ctx ~caller_unit bp
      | _ -> None
    in
    (* a literal or unresolvable body is recorded with Top sets, so the
       manifest is honest about the blind spot *)
    let blind =
      {
        r_name = name;
        r_src = u.Cmt_load.u_src;
        r_body_loc = e.exp_loc;
        r_reg_loc = e.exp_loc;
        r_reads = [ Keyspace.Top ];
        r_writes = [ Keyspace.Top ];
        r_nondet = [];
        r_declared = declared;
      }
    in
    match body_fn with
    | None -> blind
    | Some fn ->
      let reads, writes =
        analyze_body ctx ~caller_unit:fn.Callgraph.f_scope
          fn.Callgraph.f_expr
      in
      {
        blind with
        r_src = fn.Callgraph.f_unit.Cmt_load.u_src;
        r_body_loc = fn.Callgraph.f_loc;
        r_reads = reads;
        r_writes = writes;
        r_nondet = nondet_sources ctx fn;
      }
  in
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
    (List.map report (List.rev sites))

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
            \"writes\": [%s], \"deterministic\": %b, \
            \"nondeterminism\": [%s], \"declared\": \"%s\"}"
           (Diag.escape r.r_name) (Diag.escape r.r_src) (strings r.r_reads)
           (strings r.r_writes) (r.r_nondet = [])
           (String.concat ", "
              (List.map
                 (fun s -> Printf.sprintf "\"%s\"" (Diag.escape s))
                 r.r_nondet))
           declared))
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
