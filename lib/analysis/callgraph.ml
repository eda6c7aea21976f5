(* The interprocedural function table and call resolution.

   Functions are the structure-level [let] bindings of every loaded
   unit, keyed by "MangledUnit.name" ("Repro_core__Engine.mark_red") —
   the mangled unit prefix is what disambiguates the two [Engine]
   modules (lib/sim vs lib/core).  A binding inside a nested
   [module M = struct ... end] is keyed by its module path
   ("Repro_db__Action.Id.hash"); that path is the binding's {e scope},
   which resolution searches first, innermost out.  Lets inside an
   expression are not table entries of their own; their bodies are
   analyzed as part of the enclosing binding.

   Resolution maps the [Path.t] at a use site back to a table key.  The
   typed AST records paths as written, so one callee has many
   spellings: a bare recursive call ("mark_red"), a wrapper-qualified
   cross-library call ("Repro_storage.Wlog.append"), the -open alias
   module of the enclosing library ("Repro_core__.Persist.sync"), or a
   structure-level alias ("Sim.Engine.schedule" after
   [module Sim = Repro_sim]).  Candidates for each spelling are tried
   against the table in order; unresolved uses are treated as
   effect-free by the analyses (conservative for stdlib, and the
   project's own cross-module calls all resolve). *)

type fn = {
  f_key : string;
  f_unit : Cmt_load.unit_info;
  f_scope : string;
      (** the enclosing module path: the mangled unit name, then any
          nested module names ("Repro_db__Action.Id") *)
  f_name : string;
  f_expr : Typedtree.expression;
  f_loc : Location.t;
  f_attrs : Typedtree.attributes;
      (** the binding's [\@\@...] attributes plus the bound expression's
          [\@...] ones — the ambient-state and cost passes read their
          [analysis.*] markers from here *)
}

type t = {
  fns : (string, fn) Hashtbl.t;
  order : fn list;  (** insertion order: unit order, then source order *)
  aliases : (string, (string * string) list) Hashtbl.t;
      (** per scope: its structure-level [module X = P] aliases *)
  units : Cmt_load.unit_info list;
}

(* The structure of a nested module, through signature constraints;
   [None] for a functor, an alias or an application. *)
let rec nested_structure (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> Some str
  | Typedtree.Tmod_constraint (me, _, _, _) -> nested_structure me
  | _ -> None

(* The scopes of a structure: [(scope, str)] for the structure itself
   and every nested module structure in it, outermost first. *)
let rec scopes scope (str : Typedtree.structure) =
  (scope, str)
  :: List.concat_map
       (fun (item : Typedtree.structure_item) ->
         match item.str_desc with
         | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
           match nested_structure mb_expr with
           | Some inner -> scopes (scope ^ "." ^ Ident.name id) inner
           | None -> [])
         | _ -> [])
       str.str_items

let bound_functions (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.filter_map
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            (* [Tpat_alias] is how a type-annotated [let x : t = e]
               types: without it, exactly the bindings careful enough
               to declare their type would be invisible to every
               pass — the pre-PR 7 procedure registry was. *)
            | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
              Some
                ( Ident.name id, vb.vb_expr, vb.vb_loc,
                  vb.vb_attributes @ vb.vb_expr.exp_attributes )
            | _ -> None)
          vbs
      | _ -> [])
    str.str_items

(* The head module path of a module expression, through constraints and
   functor applications: [module Tbl : S = Hashtbl.Make (K)] records
   "Tbl" -> "Hashtbl.Make", so a later [Tbl.create] canonicalizes to a
   spelling the stateful-module matchers recognize.  This is the shared
   alias table every pass (rules, globals, cost) reads — a
   [module H = Hashtbl] cannot hide a global table from any of them. *)
let rec module_head (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (Cmt_load.path_name p)
  | Typedtree.Tmod_constraint (me, _, _, _) -> module_head me
  | Typedtree.Tmod_apply (f, _, _) -> module_head f
  | _ -> None

let unit_aliases (str : Typedtree.structure) =
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
        match module_head mb_expr with
        | Some target -> Some (Ident.name id, target)
        | None -> None)
      | _ -> None)
    str.str_items

let build (units : Cmt_load.unit_info list) =
  let fns = Hashtbl.create 256 in
  let order = ref [] in
  let aliases = Hashtbl.create 16 in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      List.iter
        (fun (scope, str) ->
          Hashtbl.replace aliases scope (unit_aliases str);
          List.iter
            (fun (name, expr, loc, attrs) ->
              let key = scope ^ "." ^ name in
              if not (Hashtbl.mem fns key) then begin
                let fn =
                  { f_key = key; f_unit = u; f_scope = scope; f_name = name;
                    f_expr = expr; f_loc = loc; f_attrs = attrs }
                in
                Hashtbl.replace fns key fn;
                order := fn :: !order
              end)
            (bound_functions str))
        (scopes u.u_name u.u_str))
    units;
  { fns; order = List.rev !order; aliases; units }

let find t key = Hashtbl.find_opt t.fns key

(* The table functions in table order; [within] keeps those whose source
   is under one of the prefixes (the [--core] scope). *)
let table_fns ?within t =
  match within with
  | None -> t.order
  | Some prefixes ->
    List.filter (fun fn -> Cmt_load.under prefixes fn.f_unit.Cmt_load.u_src) t.order

(* The library wrapper of a mangled unit name:
   "Repro_core__Engine" -> "Repro_core"; a plain unit is its own. *)
let lib_of_unit unit_name =
  let len = String.length unit_name in
  let rec find i =
    if i + 1 >= len then None
    else if unit_name.[i] = '_' && unit_name.[i + 1] = '_' then
      Some (String.sub unit_name 0 i)
    else find (i + 1)
  in
  match find 0 with Some lib -> lib | None -> unit_name

let drop_trailing_underscores s =
  let len = String.length s in
  let rec stop i = if i > 0 && s.[i - 1] = '_' then stop (i - 1) else i in
  String.sub s 0 (stop len)

let contains_mangling s =
  let len = String.length s in
  let rec scan i =
    i + 2 < len && ((s.[i] = '_' && s.[i + 1] = '_') || scan (i + 1))
  in
  scan 0

(* A scope and its enclosing scopes, innermost first:
   "U.M.N" -> ["U.M.N"; "U.M"; "U"]. *)
let enclosing scope =
  let rec go s acc =
    match String.rindex_opt s '.' with
    | Some i -> go (String.sub s 0 i) (s :: acc)
    | None -> List.rev (s :: acc)
  in
  go scope []

let unit_of_scope scope =
  match String.index_opt scope '.' with
  | Some i -> String.sub scope 0 i
  | None -> scope

(* Candidate table keys for a path spelled [parts] from the scope
   [caller_unit] (a unit, or a module nested in one), most specific
   first. *)
let candidates ~caller_unit parts =
  let local =
    List.map (fun s -> s ^ "." ^ String.concat "." parts) (enclosing caller_unit)
  in
  let caller_unit = unit_of_scope caller_unit in
  match parts with
  | [] -> []
  | [ _ ] -> local
  | p0 :: p1 :: rest ->
    let join unit path = unit ^ "." ^ String.concat "." path in
    let c =
      if contains_mangling p0 then [ join p0 (p1 :: rest) ]
        (* already a mangled unit: "Repro_core__Persist.sync" *)
      else []
    in
    let c =
      c
      @
      if Cmt_load.has_prefix "Repro_" p0 then
        (* wrapper-qualified: "Repro_storage.Wlog.append", or the -open
           alias module "Repro_core__.Persist.sync" *)
        let lib = drop_trailing_underscores p0 in
        if rest = [] then [] else [ join (lib ^ "__" ^ p1) rest ]
      else []
    in
    (* same-library sibling: "Persist.sync" from Repro_core__Engine *)
    local @ c @ [ join (lib_of_unit caller_unit ^ "__" ^ p0) (p1 :: rest) ]

(* The components of [p] with structure-level alias substitution on
   the head component, from the innermost scope that binds it. *)
let dealiased_parts t ~caller_unit (p : Path.t) =
  let parts = String.split_on_char '.' (Cmt_load.path_name p) in
  match parts with
  | head :: rest -> (
    let alias scope =
      match Hashtbl.find_opt t.aliases scope with
      | Some al -> List.assoc_opt head al
      | None -> None
    in
    match List.find_map alias (enclosing caller_unit) with
    | Some target -> String.split_on_char '.' target @ rest
    | None -> parts)
  | [] -> parts

let resolve t ~caller_unit (p : Path.t) =
  let parts = dealiased_parts t ~caller_unit p in
  let rec first = function
    | [] -> None
    | key :: rest -> (
      match Hashtbl.find_opt t.fns key with
      | Some fn -> Some fn
      | None -> first rest)
  in
  first (candidates ~caller_unit parts)

(* Every name a use site answers to for primitive matching: the
   normalized syntactic spelling, plus the normalized resolved key when
   resolution succeeds ("Wlog.append" matches whether it was written
   as a bare [append] inside wlog.ml or qualified from outside). *)
let prim_names t ~caller_unit p =
  let raw = Cmt_load.normalize (Cmt_load.path_name p) in
  match resolve t ~caller_unit p with
  | Some fn -> [ raw; Cmt_load.normalize fn.f_key ]
  | None -> [ raw ]

(* The canonical spelling of a referenced path: structure-level module
   aliases substituted on the head component ([module R = Random] does
   not hide Random, [module H = Hashtbl] does not hide a table, and a
   functor alias [module Tbl = Hashtbl.Make (K)] spells [Tbl.create] as
   "Hashtbl.Make.create"), mangling stripped, Stdlib/wrapper prefixes
   dropped.  Shared by every pass that matches names, so no detector
   has a private — and therefore divergent — alias story. *)
let canonical t ~caller_unit p =
  let name = Cmt_load.normalize (String.concat "." (dealiased_parts t ~caller_unit p)) in
  (* A module alias another unit exports is substituted too:
     [Node_id.Tbl.fold], where node_id.ml binds
     [module Tbl = Hashtbl.Make (...)], spells "Hashtbl.Make.fold", as a
     local alias would.  The exporting unit is looked up by its short
     name, in the caller's library first (lib/sim and lib/core both
     have an [Engine]).  One step: an exported alias is a functor
     application or a stdlib module, not another project alias. *)
  match String.split_on_char '.' name with
  | unit :: (_ :: _ :: _ as path) -> (
    let in_lib u =
      lib_of_unit u.Cmt_load.u_name = lib_of_unit (unit_of_scope caller_unit)
    in
    let named u = Cmt_load.strip_mangle u.Cmt_load.u_name = unit in
    let exporters =
      List.filter (fun u -> named u && in_lib u) t.units
      @ List.filter (fun u -> named u && not (in_lib u)) t.units
    in
    (* Down the exporter's nested modules to the first alias on the
       path: [Action.Id.Tbl.find], where [Id] is a nested structure
       binding [module Tbl = Hashtbl.Make (...)], spells
       "Hashtbl.Make.find". *)
    let rec alias scope = function
      | m :: (_ :: _ as rest) -> (
        let al = Hashtbl.find_opt t.aliases scope in
        match Option.bind al (List.assoc_opt m) with
        | Some target -> Some (target :: rest)
        | None -> alias (scope ^ "." ^ m) rest)
      | _ -> None
    in
    match List.find_map (fun u -> alias u.Cmt_load.u_name path) exporters with
    | Some parts -> Cmt_load.normalize (String.concat "." parts)
    | None -> name)
  | _ -> name

(* --- the shared solver ------------------------------------------------- *)

(* Chaotic iteration to a fixpoint: run [step] over [xs] in list order,
   round after round, until a whole round reports no change.  Every
   interprocedural pass states its lattice as a monotone [step] over a
   finite domain, so this terminates; list order keeps the rounds, and
   so every witness a pass records, deterministic. *)
let fixpoint step xs =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun x -> if step x then changed := true) xs
  done

(* Every node reachable from [roots] along [succ], roots included, in
   depth-first preorder.  Cycles are fine: a node is visited once. *)
let reachable ~succ roots =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      order := x :: !order;
      List.iter visit (succ x)
    end
  in
  List.iter visit roots;
  List.rev !order

(* --- analysis attributes --------------------------------------------- *)

(* [attr fn "analysis.ambient_ok"] is [None] when absent, [Some reason]
   when present ([Some ""] when the payload is missing or not a string
   literal — presence suppresses, the reason is for humans). *)
let attr (fn : fn) name =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> name then None
      else
        match a.attr_payload with
        | Parsetree.PStr
            [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant c; _ }, _); _ } ]
          -> (
          match c with Parsetree.Pconst_string (s, _, _) -> Some s | _ -> Some "")
        | _ -> Some "")
    fn.f_attrs
