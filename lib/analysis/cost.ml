(* Interprocedural hot-path cost analysis.

   Every table function gets a cost summary — a work mask and an
   allocation mask over the Loops bound classes — computed to fixpoint
   along the call graph, Effects-style: a function's masks are the join
   of what its body does directly and what its callees' summaries say,
   and the whole table is rescanned (Callgraph.fixpoint) until nothing
   grows (masks are monotone, so it terminates in at most bit-count
   rounds).  Reachability from the roots follows the effect layer's
   reference graph (Effects.refs).

   The body scan tracks a *loop context*: the join of the bound classes
   of every enclosing iteration.  The classification of an iterated
   collection (loops.ml) is origin- and type-based:

   - the bare element variable of an enclosing iteration: absorbed —
     iterating each element's own data sums to the enclosing bound;
   - a collection whose element type names a system quantity
     (membership, actions, log frames): that class;
   - otherwise a bare parameter of the function: batch (its own input);
   - otherwise: Top.

   Inside a non-trivial loop, any further non-absorbed scan or
   non-constant callee is Top — the "no nested whole-collection scans
   per event" discipline that catches the quadratic view-change
   intersection this pass shipped against.  Structural recursion (self
   or locally [let rec]-bound), [while], and non-constant [for] bounds
   are Top; genuinely bounded recursion (heap sifts, amortized queue
   drains) is waived with an explicit [@@analysis.cost "..."] trusted
   summary, which replaces the computed one and is itself checked for
   staleness (a waiver no hot path reaches is a finding).

   Budgets are declared at the roots: [@@analysis.hotpath "O(queue)"]
   on a per-event handler fails the build if the propagated summary
   exceeds the budget, with the offending scan or allocation site as
   the finding location.

   Approximations, documented in DESIGN.md §15: mutual recursion
   between top-level functions is approximated by summary join (the
   iteration count is not modelled); a batch-bounded callee invoked per
   element is assumed to process per-element data (its work sums to the
   enclosing bound rather than multiplying it). *)

type summary = {
  s_work : int;
  s_alloc : int;
  s_wwit : (int * Location.t * string) list;  (* per-bit work witness *)
  s_awit : (int * Location.t * string) list;  (* per-bit alloc witness *)
}

type t = {
  eff : Effects.t;  (** the call graph and its reference edges *)
  summaries : (string, summary) Hashtbl.t;
  trusted : (string, int * int) Hashtbl.t;
  mutable bad_trusted : (Callgraph.fn * string) list;
}

let hotpath_attr = "analysis.hotpath"
let trusted_attr = "analysis.cost"
let cost_rule = "hotpath-cost"
let alloc_rule = "hotpath-alloc"
let annot_rule = "bad-cost-annotation"
let unused_rule = "unused-hotpath"
let comparator_rule = "boxed-float-comparator"

let pretty key = Cmt_load.demangle key

(* --- type and origin classification ----------------------------------- *)

let rec constr_names depth acc (ty : Types.type_expr) =
  if depth = 0 then acc
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
      List.fold_left
        (constr_names (depth - 1))
        (Cmt_load.demangle (Cmt_load.path_name p) :: acc)
        args
    | Types.Ttuple tys -> List.fold_left (constr_names (depth - 1)) acc tys
    | _ -> acc

let type_class ty = Loops.classify_names (constr_names 4 [] ty)

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let is_float_ty ty =
  match Cmt_load.type_constr_name ty with Some "float" -> true | _ -> false

(* A function-literal comparator over boxed floats: the classic
   accidental-boxing shape ([Heap.create ~cmp:(fun a b -> ...)] over
   float keys). *)
let is_float_comparator_literal (a : Typedtree.expression) =
  (match a.exp_desc with Typedtree.Texp_function _ -> true | _ -> false)
  &&
  match Types.get_desc a.exp_type with
  | Types.Tarrow (_, t1, rest, _) -> (
    is_float_ty t1
    &&
    match Types.get_desc rest with
    | Types.Tarrow (_, t2, _, _) -> is_float_ty t2
    | _ -> false)
  | _ -> false

type bound = B_elem | B_cls of int

let bare_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some id
  | _ -> None

let classify ~elems ~wholes (e : Typedtree.expression) =
  match bare_ident e with
  | Some id when List.exists (Ident.same id) elems -> B_elem
  | bare -> (
    match type_class e.exp_type with
    | Some c -> B_cls c
    | None -> (
      match bare with
      | Some id when List.exists (Ident.same id) wholes -> B_cls Loops.batch
      | _ -> B_cls Loops.top))

(* Strip the leading lambda chain of a binding: its parameters are the
   function's own input (batch-bounded when nothing better is known),
   and the innermost bodies are what actually runs per call.  A
   match-lambda ([let f t = function ...]) contributes every case body,
   every [when] guard (a guard runs on each call that reaches its case)
   and its pattern variables. *)
let rec strip_params (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_lhs; c_rhs; c_guard = None } ]; _ }
    ->
    let vars, bodies = strip_params c_rhs in
    (Typedtree.pat_bound_idents c_lhs @ vars, bodies)
  | Typedtree.Texp_function { cases; _ } ->
    ( List.concat_map
        (fun (c : _ Typedtree.case) -> Typedtree.pat_bound_idents c.c_lhs)
        cases,
      List.concat_map
        (fun (c : _ Typedtree.case) -> Option.to_list c.c_guard @ [ c.c_rhs ])
        cases )
  | _ -> ([], [ e ])

let is_constant (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_constant _ -> true | _ -> false

(* --- the body scan ----------------------------------------------------- *)

(* A function's masks and witnesses; a trusted summary replaces the
   computed one. *)
let effective t key =
  match Hashtbl.find_opt t.trusted key with
  | Some (w, a) -> (w, a, [], [])
  | None -> (
    match Hashtbl.find_opt t.summaries key with
    | Some s -> (s.s_work, s.s_alloc, s.s_wwit, s.s_awit)
    | None -> (0, 0, [], []))

(* The contribution of a saturated callee with masks [(w, a)] invoked
   in loop context [ctx].  [elem] marks a call whose argument is a bare
   element of the enclosing iteration: the callee's batch-bounded part
   processes per-element data and is absorbed. *)
let contrib ~ctx ~elem (w, a) =
  let tw = if elem then w land lnot Loops.batch else w in
  let ta = if elem then a land lnot Loops.batch else a in
  let cw =
    if Loops.is_top tw then Loops.top
    else if ctx = 0 then tw
    else if tw = 0 then 0
    else Loops.top
  in
  let ca =
    if Loops.is_top ta then Loops.top
    else if ctx = 0 then ta
    else if ta = 0 then 0
    else if ta land lnot Loops.alloc_const = 0 then ctx
    else Loops.top
  in
  (cw, ca)

let scan t (fn : Callgraph.fn) =
  let caller_unit = fn.f_scope in
  let work = ref 0 and alloc = ref 0 in
  let wwit = ref [] and awit = ref [] in
  let witness wit bit loc desc =
    if not (List.exists (fun (b, _, _) -> b = bit) !wit) then
      wit := (bit, loc, desc) :: !wit
  in
  let add_work loc desc m =
    let fresh = m land lnot !work in
    List.iter (fun bit -> witness wwit bit loc desc) (Loops.bits fresh);
    if Loops.is_top fresh then witness wwit Loops.top loc desc;
    work := Loops.join !work m
  in
  let add_alloc loc desc m =
    let fresh = m land lnot !alloc in
    List.iter (fun bit -> witness awit bit loc desc) (Loops.bits fresh);
    if Loops.is_top fresh then witness awit Loops.top loc desc;
    alloc := Loops.join !alloc m
  in
  let wholes, bodies = strip_params fn.Callgraph.f_expr in
  let resolve p = Callgraph.resolve t.eff.Effects.graph ~caller_unit p in
  let callee_at ~ctx ~elem loc (g : Callgraph.fn) =
    if g.Callgraph.f_key = fn.Callgraph.f_key then
      add_work loc "a recursive call (bound not inferred)" Loops.top
    else begin
      let w, a, _, _ = effective t g.Callgraph.f_key in
      let cw, ca = contrib ~ctx ~elem (w, a) in
      add_work loc
        (Printf.sprintf "calls %s (work %s)" (pretty g.Callgraph.f_key)
           (Loops.to_string w))
        cw;
      add_alloc loc
        (Printf.sprintf "calls %s (alloc %s)%s" (pretty g.Callgraph.f_key)
           (Loops.to_string (a land lnot Loops.alloc_const))
           (if ctx = 0 then ""
            else Printf.sprintf " inside an %s loop" (Loops.to_string ctx)))
        ca
    end
  in
  let alloc_site ctx loc noun =
    if ctx = 0 then alloc := Loops.join !alloc Loops.alloc_const
    else
      add_alloc loc
        (Printf.sprintf "allocates %s inside an %s loop" noun
           (Loops.to_string ctx))
        ctx
  in
  let alloc_noun (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function _ -> Some "a closure"
    | Typedtree.Texp_tuple _ -> Some "a tuple"
    | Typedtree.Texp_record _ -> Some "a record"
    | Typedtree.Texp_array _ -> Some "an array"
    | Typedtree.Texp_construct (_, _, _ :: _) -> Some "a constructor"
    | Typedtree.Texp_variant (_, Some _) -> Some "a variant"
    | _ -> None
  in
  (* The context is the loop class and the enclosing element variables;
     nothing flows. *)
  let rec transfer go (ctx, elems) () (e : Typedtree.expression) =
    let walk ctx e = go (ctx, elems) () e in
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      Option.iter (callee_at ~ctx ~elem:false e.exp_loc) (resolve p);
      Some ()
    | Typedtree.Texp_apply (f, args) -> Some (apply go ctx elems e f args)
    | Typedtree.Texp_let (Asttypes.Recursive, vbs, _)
      when List.exists
             (fun (vb : Typedtree.value_binding) ->
               Effects.is_fun_literal vb.vb_expr)
             vbs ->
      add_work e.exp_loc "a locally recursive function (bound not inferred)"
        Loops.top;
      None
    | Typedtree.Texp_while (cond, body) ->
      add_work e.exp_loc "a while loop (bound not inferred)" Loops.top;
      walk Loops.top cond;
      walk Loops.top body;
      Some ()
    | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
      let const_bounds = is_constant lo && is_constant hi in
      if not const_bounds then
        add_work e.exp_loc "a for loop with a non-constant bound" Loops.top;
      walk ctx lo;
      walk ctx hi;
      walk (if const_bounds then ctx else Loops.top) body;
      Some ()
    | _ ->
      Option.iter (alloc_site ctx e.exp_loc) (alloc_noun e);
      None
  and apply go ctx elems e f args =
    let walk ctx elems a = go (ctx, elems) () a in
    let arg_exprs = List.filter_map (fun (_, a) -> a) args in
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
      let canon = Callgraph.canonical t.eff.Effects.graph ~caller_unit p in
      match (canon, arg_exprs) with
      | ("|>", [ x; g ]) | ("@@", [ g; x ]) ->
        (* Unfold the pipeline so the piped collection reaches the scan
           combinator as its missing positional argument: [xs |> List.filter p]
           is [List.filter p xs], not an application with no target. *)
        (match g.Typedtree.exp_desc with
        | Typedtree.Texp_apply (h, pargs) ->
          apply go ctx elems e h (pargs @ [ (Asttypes.Nolabel, Some x) ])
        | _ -> apply go ctx elems e g [ (Asttypes.Nolabel, Some x) ])
      | _ -> (
      match Loops.scan_target canon with
      | Some { Loops.sc_arg; sc_allocs } ->
        let bound =
          match List.nth_opt arg_exprs sc_arg with
          | Some c -> classify ~elems ~wholes c
          | None -> B_cls Loops.top
        in
        let eff =
          match bound with
          | B_elem -> if ctx = 0 then Loops.batch else ctx
          | B_cls c ->
            if Loops.is_top c then Loops.top
            else if ctx = 0 then c
            else Loops.top
        in
        let desc =
          match bound with
          | B_cls c when ctx <> 0 && not (Loops.is_top c) ->
            Printf.sprintf "a %s scan nested inside an %s loop" canon
              (Loops.to_string ctx)
          | B_cls c when Loops.is_top c ->
            let names =
              match List.nth_opt arg_exprs sc_arg with
              | Some a -> constr_names 4 [] a.Typedtree.exp_type
              | None -> []
            in
            Printf.sprintf "%s over a collection with no inferred bound%s"
              canon
              (match names with
              | [] -> ""
              | _ -> Printf.sprintf " (type %s)" (String.concat " " names))
          | _ ->
            Printf.sprintf "%s over an %s collection" canon
              (Loops.to_string eff)
        in
        add_work e.exp_loc desc eff;
        if sc_allocs then
          if eff = 0 then alloc := Loops.join !alloc Loops.alloc_const
          else
            add_alloc e.exp_loc
              (Printf.sprintf "%s allocates its %s result" canon
                 (Loops.to_string eff))
              eff;
        List.iteri
          (fun i a ->
            if i = sc_arg then walk ctx elems a
            else if is_arrow a.Typedtree.exp_type then iteratee go eff elems a
            else walk ctx elems a)
          arg_exprs
      | None -> (
        match resolve p with
        | Some g ->
          let elem =
            List.exists
              (fun a ->
                match bare_ident a with
                | Some id -> List.exists (Ident.same id) elems
                | None -> false)
              arg_exprs
          in
          callee_at ~ctx ~elem f.Typedtree.exp_loc g;
          List.iter (walk ctx elems) arg_exprs
        | None ->
          if List.mem canon Loops.alloc_prims then
            alloc_site ctx e.exp_loc (Printf.sprintf "%s output" canon);
          List.iter (walk ctx elems) arg_exprs)))
    | Typedtree.Texp_apply (g, pargs) ->
      (* A curried application chain — what the typechecker leaves of
         [xs |> List.filter p] — flattens to one call with all the
         arguments, so the scan combinator sees its collection. *)
      apply go ctx elems e g (pargs @ args)
    | _ ->
      walk ctx elems f;
      List.iter (walk ctx elems) arg_exprs
  (* An arrow-typed argument of an iteration primitive: runs once per
     element of an [eff]-bounded loop. *)
  and iteratee go eff elems (a : Typedtree.expression) =
    let walk ctx elems a = go (ctx, elems) () a in
    match a.Typedtree.exp_desc with
    | Typedtree.Texp_function _ ->
      let vars, bodies = strip_params a in
      List.iter (walk eff (vars @ elems)) bodies
    | Typedtree.Texp_ident (p, _, _) ->
      Option.iter (callee_at ~ctx:eff ~elem:true a.Typedtree.exp_loc) (resolve p)
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, pargs)
      ->
      let pre = List.filter_map (fun (_, x) -> x) pargs in
      Option.iter (callee_at ~ctx:eff ~elem:true a.Typedtree.exp_loc) (resolve p);
      (* the closed-over arguments are evaluated once, outside the loop *)
      List.iter (walk 0 elems) pre
    | _ -> walk eff elems a
  in
  List.iter (Walk.descend transfer (0, [])) bodies;
  { s_work = !work; s_alloc = !alloc; s_wwit = !wwit; s_awit = !awit }

(* --- the fixpoint ------------------------------------------------------ *)

let analyze (eff : Effects.t) =
  let graph = eff.Effects.graph in
  let t =
    {
      eff;
      summaries = Hashtbl.create 256;
      trusted = Hashtbl.create 16;
      bad_trusted = [];
    }
  in
  let fns = Callgraph.table_fns graph in
  List.iter
    (fun fn ->
      match Callgraph.attr fn trusted_attr with
      | Some s -> (
        match Loops.parse_budget s with
        | Some (w, a) ->
          Hashtbl.replace t.trusted fn.Callgraph.f_key
            (w, a lor Loops.alloc_const)
        | None -> t.bad_trusted <- (fn, s) :: t.bad_trusted)
      | None -> ())
    fns;
  (* Trusted functions keep their declared masks; everything else is
     rescanned until no mask grows. *)
  Callgraph.fixpoint
    (fun fn ->
      let key = fn.Callgraph.f_key in
      let s = scan t fn in
      let grew =
        match Hashtbl.find_opt t.summaries key with
        | Some old -> old.s_work <> s.s_work || old.s_alloc <> s.s_alloc
        | None -> true
      in
      Hashtbl.replace t.summaries key s;
      grew)
    (List.filter (fun fn -> not (Hashtbl.mem t.trusted fn.Callgraph.f_key)) fns);
  t

(* --- enforcement ------------------------------------------------------- *)

let roots t =
  List.filter_map
    (fun fn ->
      match Callgraph.attr fn hotpath_attr with
      | Some budget -> Some (fn, budget)
      | None -> None)
    (Callgraph.table_fns t.eff.Effects.graph)

let offending mask budget =
  if Loops.is_top mask then [ Loops.top ]
  else Loops.bits (mask land lnot (budget lor Loops.alloc_const))

let witness_for wits fallback_loc bit =
  match List.find_opt (fun (b, _, _) -> b = bit) wits with
  | Some (_, loc, desc) -> (loc, desc)
  | None -> (fallback_loc, "propagated from a trusted summary")

(* The boxed-float-comparator rule is structural, not budgeted: the
   shape is wrong wherever it appears in a table function.  A visitor on
   the shared walk. *)
let comparator_visitor sink : Walk.visitor =
 fun fn _ e ->
  match (fn, e.Typedtree.exp_desc) with
  | Some _, Typedtree.Texp_apply (_, args) ->
    List.iter
      (fun (_, a) ->
        match a with
        | Some a when is_float_comparator_literal a ->
          Diag.add sink ~rule:comparator_rule ~loc:a.Typedtree.exp_loc
            "float comparator closure passed to a polymorphic \
             higher-order function: both floats are boxed on every \
             comparison; specialize the container to unboxed keys \
             (int-keyed heap, float array sort via Float.compare)"
        | _ -> ())
      args
  | _ -> ()

let run t sink =
  let fns = Callgraph.table_fns t.eff.Effects.graph in
  List.iter
    (fun ((fn : Callgraph.fn), s) ->
      Diag.addf sink ~rule:annot_rule ~loc:fn.Callgraph.f_loc
        "trusted cost annotation %S on %s does not parse; expected e.g. \
         \"O(queue)\" or \"O(members); alloc O(1)\""
        s
        (pretty fn.Callgraph.f_key))
    t.bad_trusted;
  List.iter
    (fun ((fn : Callgraph.fn), budget) ->
      match Loops.parse_budget budget with
      | None ->
        Diag.addf sink ~rule:annot_rule ~loc:fn.Callgraph.f_loc
          "hot-path budget %S on %s does not parse; expected e.g. \
           \"O(queue)\" or \"O(members+queue); alloc O(1)\""
          budget
          (pretty fn.Callgraph.f_key)
      | Some (bw, ba) ->
        if not (is_arrow fn.Callgraph.f_expr.Typedtree.exp_type) then
          Diag.addf sink ~rule:unused_rule ~loc:fn.Callgraph.f_loc
            "hot-path budget on %s, which is not a function; the \
             annotation has no effect"
            (pretty fn.Callgraph.f_key)
        else begin
          let w, a, wwit, awit = effective t fn.Callgraph.f_key in
          List.iter
            (fun bit ->
              let loc, desc = witness_for wwit fn.Callgraph.f_loc bit in
              Diag.addf sink ~rule:cost_rule ~loc
                "hot path %s exceeds its work budget %S: %s"
                (pretty fn.Callgraph.f_key)
                budget desc)
            (offending w bw);
          List.iter
            (fun bit ->
              let loc, desc = witness_for awit fn.Callgraph.f_loc bit in
              Diag.addf sink ~rule:alloc_rule ~loc
                "hot path %s exceeds its allocation budget %S: %s"
                (pretty fn.Callgraph.f_key)
                budget desc)
            (offending a ba)
        end)
    (roots t);
  (* Stale trusted summaries: a waiver no hot path reaches. *)
  let stale =
    Loops.stale_trusted
      ~roots:(List.map (fun (fn, _) -> fn.Callgraph.f_key) (roots t))
      ~refs:(Effects.refs t.eff)
      ~trusted:
        (List.filter (Hashtbl.mem t.trusted)
           (List.map (fun (fn : Callgraph.fn) -> fn.Callgraph.f_key) fns))
  in
  List.iter
    (fun key ->
      match Callgraph.find t.eff.Effects.graph key with
      | Some fn ->
        Diag.addf sink ~rule:unused_rule ~loc:fn.Callgraph.f_loc
          "trusted cost annotation on %s is not reachable from any \
           [@@analysis.hotpath] root; remove it or annotate the hot path \
           it was written for"
          (pretty key)
      | None -> ())
    stale

(* --- the ranked table -------------------------------------------------- *)

(* Every function reachable from a hot-path root, ranked by inferred
   work (Top first, then heavier bound classes): the profiling
   worklist.  Deterministic — sorted, no timestamps. *)
let ranked_table t =
  let root_list = roots t in
  let budget_of =
    List.map (fun ((fn : Callgraph.fn), b) -> (fn.Callgraph.f_key, b)) root_list
  in
  let rank m = if Loops.is_top m then max_int else m land lnot Loops.alloc_const in
  let rows =
    List.map
      (fun key ->
        let w, a, _, _ = effective t key in
        (rank w, rank a, pretty key, key, w, a))
      (Callgraph.reachable ~succ:(Effects.refs t.eff) (List.map fst budget_of))
  in
  let rows =
    List.sort
      (fun (rw1, ra1, n1, k1, _, _) (rw2, ra2, n2, k2, _, _) ->
        compare (rw2, ra2, n1, k1) (rw1, ra1, n2, k2))
      rows
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "cost: %d hot-path root(s), %d reachable function(s)\n"
       (List.length root_list) (List.length rows));
  Buffer.add_string b
    (Printf.sprintf "  %-18s %-18s %s\n" "work" "alloc" "function");
  List.iter
    (fun (_, _, name, key, w, a) ->
      let suffix =
        match List.assoc_opt key budget_of with
        | Some budget -> Printf.sprintf "  [root: %s]" budget
        | None -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "  %-18s %-18s %s%s\n" (Loops.to_string w)
           (Loops.to_string (a land lnot Loops.alloc_const))
           name suffix))
    rows;
  Buffer.contents b
