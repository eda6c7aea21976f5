(* Loading the typed ASTs.

   Dune leaves one .cmt per compilation unit under the build context;
   the analyses run from the context root (_build/default), where the
   cmts and dune's copies of the sources are both reachable by the
   relative paths the cmts record.

   Compilation unit names are dune-mangled ("Repro_core__Engine"), and
   the mangled name is the only unambiguous identity: two libraries may
   both contain an [Engine] (lib/sim and lib/core do), so everything
   downstream — the function table, the call graph, effect summaries —
   keys by the mangled unit name and only demangles for display and
   primitive matching. *)

type unit_info = {
  u_name : string;  (** mangled compilation unit name, e.g. "Repro_core__Engine" *)
  u_src : string;  (** source path relative to the build root *)
  u_str : Typedtree.structure;
}

let rec find_cmts dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then find_cmts path @ acc
        else if Filename.check_suffix entry ".cmt" then path :: acc
        else acc)
      [] entries

let load path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | infos -> (
    match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation tstr, Some src ->
      Some { u_name = infos.Cmt_format.cmt_modname; u_src = src; u_str = tstr }
    | _ -> None)

(* Sorted by cmt path so unit order — and therefore everything derived
   from it — is independent of readdir order. *)
let load_roots roots =
  let cmts = List.sort compare (List.concat_map find_cmts roots) in
  (cmts, List.filter_map load cmts)

(* --- names ----------------------------------------------------------- *)

let rec path_name p =
  match p with
  | Path.Pident id -> Ident.name id
  | Path.Pdot (p, s) -> path_name p ^ "." ^ s
  | Path.Papply (a, b) -> path_name a ^ "(" ^ path_name b ^ ")"
  | Path.Pextra_ty (p, _) -> path_name p

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Is source path [src] under one of [prefixes]?  The one scope test of
   every pass ([--core], [--entry], the rule catalogue's allow-lists). *)
let under prefixes src = List.exists (fun p -> has_prefix p src) prefixes

(* [p] is [Stdlib.s] for one of [names] (an operator as the typechecker
   records it). *)
let stdlib_ident p names =
  match p with
  | Path.Pdot (Path.Pident m, s) -> Ident.name m = "Stdlib" && List.mem s names
  | _ -> false

(* Strip the dune mangling from one dot-component:
   "Repro_net__Node_id" -> "Node_id".  A trailing "__" (the wrapper
   alias module "Repro_core__") has no tail and is left alone. *)
let strip_mangle part =
  let len = String.length part in
  let rec find i =
    if i + 1 >= len then None
    else if part.[i] = '_' && part.[i + 1] = '_' then
      Some (String.sub part (i + 2) (len - i - 2))
    else find (i + 1)
  in
  match find 0 with Some tail when tail <> "" -> tail | _ -> part

(* "Repro_net__Node_id.t" -> "Node_id.t" *)
let demangle name =
  String.concat "." (List.map strip_mangle (String.split_on_char '.' name))

(* The canonical short spelling used for primitive matching:
   demangle every component and drop a leading [Stdlib] or library
   wrapper ("Repro_storage.Wlog.append", "Repro_core__.Persist.sync"
   and "Wlog.append" all normalize to the same suffix). *)
let normalize name =
  let parts = String.split_on_char '.' name in
  let parts =
    List.filter_map
      (fun p ->
        if p = "Stdlib" || has_prefix "Repro_" p then
          let stripped = strip_mangle p in
          if stripped = p then None else Some stripped
        else Some (strip_mangle p))
      parts
  in
  String.concat "." parts

(* --- type predicates ------------------------------------------------- *)

let type_constr_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (demangle (path_name p))
  | _ -> None

(* [name] is [x] itself or a qualified spelling of it: "Wlog.recover"
   answers to "Wlog.recover" and "Repro_storage.Wlog.recover". *)
let is_named x name = name = x || Filename.check_suffix name ("." ^ x)

let has_type x ty =
  match type_constr_name ty with Some name -> is_named x name | None -> false

(* The head type constructor after abbreviation expansion, with its
   [normalize]d name: type paths reach here spelled through the stdlib
   alias chain ("Stdlib.Hashtbl.t"), and the leading Stdlib must not
   hide a container. *)
let expand env ty = try Ctype.expand_head env ty with _ -> ty

let head_constr env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, args, _) -> Some (normalize (path_name p), p, args)
  | _ -> None
