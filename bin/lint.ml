(* The static-analysis driver (see lib/analysis for the framework).

   Loads the .cmt typed ASTs dune produced for the units under the
   given roots (default: lib) and runs, on one shared typed-AST walker
   (Repro_analysis.Walk):

   - the pattern-level rule catalogue (Repro_analysis.Rules);
   - interprocedural effect inference (Repro_analysis.Effects) feeding
     the write-ahead ordering analysis (Repro_analysis.Writeahead):
     every GCS send in the core must be dominated by a stable-storage
     force (paper §4, the vulnerable-record discipline);
   - spec drift (Repro_analysis.Specdrift): the engine_state transition
     graph statically extracted from the core, diffed against the
     Figure 4 table exported by Repro_check.Spec — transitions in code
     but not in spec (or vice versa) fail the build;
   - ambient mutable state (Repro_analysis.Globals);
   - hot-path cost budgets (Repro_analysis.Cost; --cost also prints the
     ranked table of every function a hot path reaches);
   - procedure key-space footprints (Repro_analysis.Procfoot), written
     as the procedure manifest with --manifest or --procedures.

   Output is deterministic: findings are deduplicated and totally
   ordered, and --report writes a SARIF-lite JSON that is byte-
   identical across runs over the same tree.  Any finding fails the
   run (exit 1) unless --exit-zero is given.

   Runs from the build context root (dune executes it in
   _build/default), so the .cmt files and the copied sources are
   reachable by the relative paths recorded in the cmts.

   NOTE: this executable links both compiler-libs and the project
   libraries; project modules are referenced fully qualified
   (Repro_check.Spec) — never [open]ed — because compiler-libs has
   top-level modules named Types, Path and Location too. *)

module A = Repro_analysis

type drift_mode = Drift_full | Drift_code_only

type config = {
  mutable roots : string list;
  mutable core : string list;
  mutable entry : string list;  (* ambient-state engine entry prefixes *)
  mutable passes : string list;  (* [] = every pass *)
  mutable manifest : string option;  (* procedure-manifest output path *)
  mutable report : string option;
  mutable drift : drift_mode;
  mutable exit_zero : bool;
}

let usage () =
  prerr_endline
    "usage: lint.exe [--core PREFIX]... [--entry PREFIX]...\n\
    \                [--cost] [--procedures] [--manifest FILE]\n\
    \                [--drift full|code-only]\n\
    \                [--report FILE] [--exit-zero] [ROOT]...\n\
     By default every pass runs; --cost / --procedures restrict the \n\
     run to the named passes.  --procedures writes the key-space \n\
     footprint manifest (procedure-manifest.json unless --manifest \n\
     names another file).";
  exit 2

let parse_args () =
  let cfg =
    {
      roots = [];
      core = [];
      entry = [];
      passes = [];
      manifest = None;
      report = None;
      drift = Drift_full;
      exit_zero = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--core" :: v :: rest ->
      cfg.core <- cfg.core @ [ v ];
      go rest
    | "--entry" :: v :: rest ->
      cfg.entry <- cfg.entry @ [ v ];
      go rest
    | "--cost" :: rest ->
      cfg.passes <- cfg.passes @ [ "cost" ];
      go rest
    | "--procedures" :: rest ->
      cfg.passes <- cfg.passes @ [ "procedures" ];
      if cfg.manifest = None then cfg.manifest <- Some "procedure-manifest.json";
      go rest
    | "--manifest" :: v :: rest ->
      cfg.manifest <- Some v;
      go rest
    | "--report" :: v :: rest ->
      cfg.report <- Some v;
      go rest
    | "--drift" :: v :: rest ->
      (cfg.drift <-
         (match v with
         | "full" -> Drift_full
         | "code-only" -> Drift_code_only
         | _ -> usage ()));
      go rest
    | "--exit-zero" :: rest ->
      cfg.exit_zero <- true;
      go rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "lint: unknown option %s\n" arg;
      usage ()
    | root :: rest ->
      cfg.roots <- cfg.roots @ [ root ];
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  if cfg.roots = [] then cfg.roots <- [ "lib" ];
  if cfg.core = [] then cfg.core <- [ "lib/core/" ];
  if cfg.entry = [] then cfg.entry <- [ "lib/core/"; "lib/db/"; "lib/gcs/" ];
  cfg

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- spec drift wiring ----------------------------------------------- *)

let spec_loc = Location.in_file "lib/check/spec.ml"

let run_drift cfg (eff : A.Effects.t) sink =
  let state_name = Repro_check.Spec.state_name in
  let all_states = List.map state_name Repro_check.Spec.all_states in
  let code = A.Specdrift.extract eff ~core:cfg.core ~all_states in
  let code_pairs = List.map fst code in
  let spec_pairs =
    A.Specdrift.expand_spec ~all_states
      (List.map
         (fun (from_, target) ->
           (Option.map state_name from_, state_name target))
         Repro_check.Spec.edges)
  in
  let code_only, spec_only = A.Specdrift.diff ~spec_pairs ~code_pairs in
  List.iter
    (fun (from_, target) ->
      let loc =
        match List.assoc_opt (from_, target) code with
        | Some loc -> loc
        | None -> spec_loc
      in
      A.Diag.addf sink ~rule:A.Specdrift.rule ~loc
        "transition %s -> %s is taken in code but is not an edge of the \
         Fig. 4 specification (lib/check/spec.ml); either the engine or \
         the spec table is wrong"
        from_ target)
    code_only;
  if cfg.drift = Drift_full then
    List.iter
      (fun (from_, target) ->
        A.Diag.addf sink ~rule:A.Specdrift.rule ~loc:spec_loc
          "Fig. 4 edge %s -> %s has no corresponding transition in the core \
           (%s); dead spec edges hide refinement gaps"
          from_ target
          (String.concat " " cfg.core))
      spec_only

(* --- main ------------------------------------------------------------- *)

let () =
  let cfg = parse_args () in
  let cmts, units = A.Cmt_load.load_roots cfg.roots in
  if cmts = [] then begin
    Printf.eprintf "lint: no .cmt files under %s (build the libraries first)\n"
      (String.concat " " cfg.roots);
    exit 2
  end;
  let graph = A.Callgraph.build units in
  let sink = A.Diag.create_sink () in
  (* Pass selection: no --cost/--procedures flag means every pass runs,
     so the @lint and @analyze dune rules cover every pass without
     changing their command lines; naming passes restricts the run. *)
  let want p = cfg.passes = [] || List.mem p cfg.passes in
  let sites = ref [] in
  let eff =
    A.Effects.infer graph
      ((if want "rules" then [ A.Rules.visitor ~core:cfg.core graph sink ]
        else [])
      @ (if want "cost" then [ A.Cost.comparator_visitor sink ] else [])
      @
      if want "procedures" || cfg.manifest <> None then
        [ A.Procfoot.visitor graph sites ]
      else [])
  in
  if want "writeahead" then A.Writeahead.run eff ~core:cfg.core sink;
  if want "drift" then run_drift cfg eff sink;
  if want "globals" then A.Globals.run eff ~entry:cfg.entry sink;
  if want "cost" then begin
    let cost = A.Cost.analyze eff in
    A.Cost.run cost sink;
    (* The ranked table — the profiling worklist — only when --cost was
       asked for by name: the implicit all-passes runs (@lint) stay
       terse, and the SARIF report stays the only machine artifact. *)
    if List.mem "cost" cfg.passes then print_string (A.Cost.ranked_table cost)
  end;
  if want "procedures" || cfg.manifest <> None then begin
    let procs = A.Procfoot.analyze eff !sites in
    if want "procedures" then A.Procfoot.run procs sink;
    match cfg.manifest with
    | Some path -> write_file path (A.Procfoot.manifest_json procs)
    | None -> ()
  end;
  let diags = A.Diag.to_list sink in
  (match cfg.report with
  | Some path -> write_file path (A.Diag.report_json diags)
  | None -> ());
  match diags with
  | [] -> Printf.printf "lint: %d compilation units clean\n" (List.length units)
  | _ ->
    List.iter (fun d -> Format.eprintf "%a@.@." A.Diag.pp d) diags;
    Printf.eprintf "lint: %d finding(s)\n" (List.length diags);
    if not cfg.exit_zero then exit 1
