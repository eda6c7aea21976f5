(* The one typed-AST walker every pass runs on.

   - [visit] makes one [Tast_iterator] pass over each loaded unit and
     calls every pass's visitor on every expression, in preorder.  A
     visitor is told the table function (Callgraph) whose body it is in,
     or [None] outside one, so the whole-unit passes (the rule
     catalogue, field-write evidence, procedure register sites) and the
     table-function passes (direct effects, the boxed-comparator rule)
     share one traversal.

   - [fold] is a path-sensitive fold over one expression.  It owns the
     traversal skeleton — [if], [match], [try], function literals, every
     case guard, applications and the generic child step — and carries
     two values: a context ['c], passed down and refined on entry to a
     branch, and a flow value ['a], threaded in evaluation order and
     joined where branches meet.  A pass supplies only its hooks:

     - [transfer] is called first at every expression, with the fold
       itself for recursion.  [Some a] is the flow after the node;
       [None] hands the node to the skeleton (a transfer may act and
       still return [None] to keep the default traversal);
     - [refine] gives the context and flow on entry to a branch: the
       two arms of [if c] and each case of a [match];
     - [join] meets the exits of the arms of an [if], the cases of a
       [match], a [try] and its handlers;
     - [literal] is the flow after a function literal, from the flow at
       its occurrence and the join of its cases' exits (its body is
       walked under the occurrence's context and flow).

     [descend] is the fold of a pass whose state is all context.

   [Tast_iterator] appears in this module only. *)

(* --- the shared visit ------------------------------------------------- *)

type visitor =
  Callgraph.fn option -> Cmt_load.unit_info -> Typedtree.expression -> unit

let visit (graph : Callgraph.t) (visitors : visitor list) =
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      let fns =
        List.filter
          (fun (fn : Callgraph.fn) -> fn.f_unit == u)
          (Callgraph.table_fns graph)
      in
      let current = ref None in
      let expr it e =
        List.iter (fun v -> v !current u e) visitors;
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      (* Bindings of nested module structures are table functions too
         (Callgraph keys them by module path). *)
      let rec items (str : Typedtree.structure) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Typedtree.Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  (* a shadowed re-binding is not the table entry *)
                  current :=
                    List.find_opt
                      (fun (fn : Callgraph.fn) -> fn.f_expr == vb.vb_expr)
                      fns;
                  it.value_binding it vb)
                vbs;
              current := None
            | Typedtree.Tstr_module { mb_expr; _ } -> (
              match Callgraph.nested_structure mb_expr with
              | Some str -> items str
              | None -> it.structure_item it item)
            | _ -> it.structure_item it item)
          str.str_items
      in
      items u.u_str)
    graph.units

(* --- the path-sensitive fold ------------------------------------------ *)

type branch =
  | Then of Typedtree.expression  (** the [if] condition *)
  | Else of Typedtree.expression
  | Case of
      Typedtree.expression * Typedtree.computation Typedtree.general_pattern
      (** a [match] case: the scrutinee and the case pattern *)

type ('c, 'a) hooks = {
  transfer :
    ('c -> 'a -> Typedtree.expression -> 'a) ->
    'c -> 'a -> Typedtree.expression -> 'a option;
  refine : 'c -> 'a -> branch -> 'c * 'a;
  join : 'a -> 'a -> 'a;
  literal : 'a -> 'a -> 'a;
}

(* The refinement of a pass that refines nothing. *)
let no_refine c a (_ : branch) = (c, a)

(* Every direct subexpression of [e], in syntactic order. *)
let subexprs (e : Typedtree.expression) =
  let acc = ref [] in
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ e' -> acc := e' :: !acc) }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

(* The joined exits of [cases], each entered at [entry case]: its guard,
   then its body.  [a] is the flow when there is no case at all. *)
let arms go join entry a (cases : 'k Typedtree.case list) =
  let exit (k : 'k Typedtree.case) =
    let c, a = entry k in
    let a = match k.c_guard with Some g -> go c a g | None -> a in
    go c a k.c_rhs
  in
  match List.map exit cases with
  | [] -> a
  | x :: xs -> List.fold_left join x xs

let fold h =
  let rec go c a (e : Typedtree.expression) =
    match h.transfer go c a e with
    | Some a -> a
    | None -> (
      match e.exp_desc with
      | Typedtree.Texp_ifthenelse (cond, then_, else_) ->
        let a = go c a cond in
        let arm b body =
          let c, a = h.refine c a b in
          match body with Some body -> go c a body | None -> a
        in
        let a_then = arm (Then cond) (Some then_) in
        h.join a_then (arm (Else cond) else_)
      | Typedtree.Texp_match (scrut, cases, _) ->
        let a = go c a scrut in
        arms go h.join
          (fun (k : _ Typedtree.case) -> h.refine c a (Case (scrut, k.c_lhs)))
          a cases
      | Typedtree.Texp_try (body, cases) ->
        let a = go c a body in
        h.join a (arms go h.join (fun _ -> (c, a)) a cases)
      | Typedtree.Texp_function { cases; _ } ->
        h.literal a (arms go h.join (fun _ -> (c, a)) a cases)
      | Typedtree.Texp_apply (f, args) ->
        List.fold_left
          (fun a (_, arg) -> match arg with Some x -> go c a x | None -> a)
          (go c a f) args
      | _ -> List.fold_left (go c) a (subexprs e))
  in
  go

(* The fold of a pass whose only state is its context: nothing flows
   and no branch refines it. *)
let descend transfer c e =
  let nothing () () = () in
  fold { transfer; refine = no_refine; join = nothing; literal = nothing } c () e
