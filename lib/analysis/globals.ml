(* Ambient-state analysis: which top-level values are process-wide
   mutable state, and who touches them.

   The sharding and parallel-apply roadmap items need engine instances
   to be cheap, self-contained values: many engines in one process,
   each owning a key shard, none observing another's state.  Any
   top-level mutable binding breaks that silently — the process-wide
   procedure registry this pass was built to catch (lib/db/procedure.ml
   before PR 7) let two tenants see each other's stored procedures.

   Detection is a three-way lattice over the top-level bindings of
   every loaded unit (they are all callgraph table entries):

   - Container: the binding's type — after head expansion, so type
     abbreviations do not hide anything — is a known mutable container
     ([ref], [Hashtbl.t], [array], [Buffer.t], [Bytes.t], [Queue.t],
     [Stack.t], [Atomic.t], [Weak.t]), or a record one of whose fields
     has such a type (a holder of a table is as ambient as the table).
   - Functor_state: the initializer is an application of a stateful
     creator ([Hashtbl.create], [ref], ...), matched through the shared
     module-alias table (Callgraph.canonical), which also resolves
     functor aliases — [module Tbl = Hashtbl.Make (K)] spells
     [Tbl.create] as "Hashtbl.Make.create".  This catches state whose
     type is abstract (the usual shape of functor-produced tables).
   - Mutable_record: the type is a record with mutable fields.  Flagged
     only when some loaded function actually writes a mutable field of
     that type (write evidence): a default-configuration record nobody
     mutates is a constant, not ambient state.

   Accessors come from the effect layer's reference graph: a function
   touches a global if its summary references it, directly or through
   callees.  Findings classify each global by reachability from the
   engine entry libraries (default lib/core, lib/db, lib/gcs — the
   [--entry] prefixes): defined inside engine code, reached from it, or
   ambient-but-internal.

   Justified exemptions carry [@@analysis.ambient_ok "why"] on the
   binding.  A suppression that suppresses nothing (the binding is not
   detected as ambient state) is itself a finding — exemptions must not
   outlive the state they excuse. *)

let rule = "ambient-state"
let unused_rule = "unused-ambient-ok"
let attr_name = "analysis.ambient_ok"

let container_types =
  [ "ref"; "Hashtbl.t"; "array"; "Buffer.t"; "Bytes.t"; "Queue.t"; "Stack.t";
    "Atomic.t"; "Weak.t"; "Ephemeron.K1.t" ]

let stateful_creators =
  [ "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Weak.create"; "Atomic.make"; "Array.make"; "Array.init";
    "Array.create_float"; "Bytes.create"; "Bytes.make" ]

(* A creator reached through a functor alias: "Hashtbl.Make.create"
   after the alias table rewrote the [Tbl] head. *)
let is_functor_creator name =
  (Cmt_load.has_prefix "Hashtbl." name || Cmt_load.has_prefix "Ephemeron." name)
  && (Filename.check_suffix name ".create" || Filename.check_suffix name ".make")

let container_kind env ty =
  match Cmt_load.head_constr env ty with
  | Some (name, _, _) when List.mem name container_types -> Some name
  | _ -> None

(* Record scrutiny: the declared kind of the head constructor.  Returns
   [(type name, has mutable field, has container-typed field)]. *)
let record_info env ty =
  match Cmt_load.head_constr env ty with
  | Some (name, p, _) -> (
    match Env.find_type p env with
    | exception Not_found -> None
    | decl -> (
      match decl.Types.type_kind with
      | Types.Type_record (lds, _) ->
        let mut =
          List.exists
            (fun (l : Types.label_declaration) ->
              l.Types.ld_mutable = Asttypes.Mutable)
            lds
        in
        let container =
          List.exists
            (fun (l : Types.label_declaration) ->
              container_kind env l.Types.ld_type <> None)
            lds
        in
        Some (name, mut, container)
      | _ -> None))
  | None -> None

let rec expr_head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply (f, _) -> expr_head_path f
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

type verdict =
  | Container of string  (** mutable by type: the container's type name *)
  | Functor_state of string  (** mutable by initializer: the creator *)
  | Mutable_record of string  (** record with mutable fields; needs a writer *)

(* Classify one top-level binding.  Functions are never globals — an
   arrow-typed binding closes over state at most, and the state itself
   is what gets flagged. *)
let classify (graph : Callgraph.t) (fn : Callgraph.fn) =
  let env = fn.Callgraph.f_expr.Typedtree.exp_env in
  let ty = fn.Callgraph.f_expr.Typedtree.exp_type in
  match Types.get_desc (Cmt_load.expand env ty) with
  | Types.Tarrow _ -> None
  | _ -> (
    match container_kind env ty with
    | Some name -> Some (Container name)
    | None -> (
      let creator =
        match expr_head_path fn.Callgraph.f_expr with
        | Some p ->
          let name =
            Callgraph.canonical graph
              ~caller_unit:fn.Callgraph.f_scope p
          in
          if List.mem name stateful_creators || is_functor_creator name then
            Some name
          else None
        | None -> None
      in
      match creator with
      | Some name -> Some (Functor_state name)
      | None -> (
        match record_info env ty with
        | Some (name, _, true) -> Some (Container name)
        | Some (name, true, false) -> Some (Mutable_record name)
        | Some _ | None -> None)))

(* The ambient mutable globals of the loaded units, suppressed or not:
   [(key, kind description)].  The procedure pass reads this to flag a
   body that reaches process-wide state.  A Mutable_record needs write
   evidence: a field assignment to its type somewhere in the loaded
   units (recorded by the effect layer's walk, [Effects.written]). *)
let mutable_globals (eff : Effects.t) =
  let graph = eff.Effects.graph in
  List.filter_map
    (fun (fn : Callgraph.fn) ->
      let key = fn.f_key in
      match classify graph fn with
      | Some (Container name) -> Some (key, name)
      | Some (Functor_state creator) -> Some (key, creator ^ " state")
      | Some (Mutable_record name) when Hashtbl.mem eff.Effects.written name ->
        Some (key, name ^ " (mutable fields)")
      | Some (Mutable_record _) | None -> None)
    (Callgraph.table_fns graph)

(* Pure bookkeeping for the unused-suppression report, unit-testable
   without cmts: annotated bindings that were never flagged. *)
let stale_suppressions ~annotated ~flagged =
  List.filter (fun (key, _) -> not (List.mem key flagged)) annotated

let run (eff : Effects.t) ~entry (sink : Diag.sink) =
  let graph = eff.Effects.graph in
  let globals = mutable_globals eff in
  (* Reverse reference graph: who references me. *)
  let rev = Hashtbl.create 256 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      List.iter
        (fun callee -> Hashtbl.add rev callee fn.f_key)
        (Effects.refs eff fn.f_key))
    (Callgraph.table_fns graph);
  (* Every annotated binding (functions included: an exemption on
     something that cannot be flagged is stale by construction). *)
  let annotated =
    List.filter_map
      (fun (fn : Callgraph.fn) ->
        Option.map (fun _ -> (fn.f_key, fn.f_loc)) (Callgraph.attr fn attr_name))
      (Callgraph.table_fns graph)
  in
  List.iter
    (fun (key, kind) ->
      let fn = Option.get (Callgraph.find graph key) in
      if Callgraph.attr fn attr_name = None then begin
        let src = fn.Callgraph.f_unit.Cmt_load.u_src in
        let classification =
          if Cmt_load.under entry src then
            Printf.sprintf "defined inside engine code (%s)" src
          else
            let entry_reachers =
              List.filter
                (fun k ->
                  match Callgraph.find graph k with
                  | Some g -> Cmt_load.under entry g.Callgraph.f_unit.Cmt_load.u_src
                  | None -> false)
                (Callgraph.reachable ~succ:(Hashtbl.find_all rev) [ key ])
            in
            match
              List.sort compare (List.map Cmt_load.demangle entry_reachers)
            with
            | witness :: _ ->
              Printf.sprintf "reachable from the engine entry point %s" witness
            | [] -> "not reached from engine entry points"
        in
        Diag.addf sink ~rule ~loc:fn.Callgraph.f_loc
          "top-level mutable value '%s' (%s) is process-wide ambient state, \
           %s; a second engine instance in this process would share it — \
           thread it through instance creation or justify it with \
           [@@%s \"why\"]"
          (Cmt_load.demangle key) kind classification attr_name
      end)
    globals;
  List.iter
    (fun (key, loc) ->
      Diag.addf sink ~rule:unused_rule ~loc
        "[@@%s] on '%s' suppresses nothing (the binding is not detected as \
         ambient mutable state); remove the stale exemption"
        attr_name (Cmt_load.demangle key))
    (stale_suppressions ~annotated ~flagged:(List.map fst globals))
