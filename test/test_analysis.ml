(* Unit tests for the static-analysis framework's pure parts: the
   diagnostic sink (dedup, ordering, JSON rendering and escaping) and the spec-drift diff against the real Figure 4
   table from lib/check/spec.ml.

   NOTE: no [open] of project libraries — repro_analysis links
   compiler-libs, whose Types/Path/Location would shadow the
   project's. *)

module Diag = Repro_analysis.Diag
module Specdrift = Repro_analysis.Specdrift
module Callgraph = Repro_analysis.Callgraph
module Globals = Repro_analysis.Globals
module Keyspace = Repro_analysis.Keyspace
module Loops = Repro_analysis.Loops
module Source = Repro_analysis.Source
module Spec = Repro_check.Spec

(* A location in a file that does not exist: Source.allowed finds no
   tag, so nothing is suppressed. *)
let loc ~file ~line ~col =
  let pos =
    {
      Lexing.pos_fname = file;
      pos_lnum = line;
      pos_bol = 0;
      pos_cnum = col;
    }
  in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let add sink ~rule ~file ~line ~col msg =
  Diag.add sink ~rule ~loc:(loc ~file ~line ~col) msg

(* --- the sink --------------------------------------------------------- *)

let test_dedup () =
  let sink = Diag.create_sink () in
  (* same (file, line, rule): one finding, whatever the column *)
  add sink ~rule:"r" ~file:"a.ml" ~line:3 ~col:1 "first";
  add sink ~rule:"r" ~file:"a.ml" ~line:3 ~col:9 "second";
  (* different rule on the same line: kept *)
  add sink ~rule:"s" ~file:"a.ml" ~line:3 ~col:1 "other rule";
  Alcotest.(check int) "two findings" 2 (List.length (Diag.to_list sink))

let test_order () =
  let sink = Diag.create_sink () in
  add sink ~rule:"r" ~file:"b.ml" ~line:1 ~col:0 "m";
  add sink ~rule:"r" ~file:"a.ml" ~line:9 ~col:0 "m";
  add sink ~rule:"s" ~file:"a.ml" ~line:2 ~col:5 "m";
  add sink ~rule:"r" ~file:"a.ml" ~line:2 ~col:1 "m";
  let got =
    List.map
      (fun d -> (d.Diag.d_file, d.Diag.d_line, d.Diag.d_col))
      (Diag.to_list sink)
  in
  Alcotest.(check (list (triple string int int)))
    "sorted by file, line, col"
    [ ("a.ml", 2, 1); ("a.ml", 2, 5); ("a.ml", 9, 0); ("b.ml", 1, 0) ]
    got

let test_json_deterministic () =
  let sink = Diag.create_sink () in
  add sink ~rule:"r" ~file:"a.ml" ~line:1 ~col:0 "m";
  let diags = Diag.to_list sink in
  Alcotest.(check string)
    "byte-identical" (Diag.report_json diags) (Diag.report_json diags)

(* The report's string escaping, pinned to literal output: a quote, a
   backslash, a newline and a tab in a message. *)
let test_json_escapes () =
  let sink = Diag.create_sink () in
  add sink ~rule:"r" ~file:"a.ml" ~line:4 ~col:7 "say \"hi\" \\ then\nnext\tcol";
  Alcotest.(check string)
    "escaped"
    "{\n\
    \  \"version\": \"1\",\n\
    \  \"tool\": \"repro-analysis\",\n\
    \  \"findings\": [\n\
    \    {\"rule\": \"r\", \"file\": \"a.ml\", \"line\": 4, \"col\": 7, \
     \"message\": \"say \\\"hi\\\" \\\\ then\\nnext\\tcol\"}\n\
    \  ]\n\
     }\n"
    (Diag.report_json (Diag.to_list sink))

(* --- source-level suppression ----------------------------------------- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_allow_tag_suppresses () =
  (* The [(* repcheck: allow *)] tag suppresses on the flagged line and
     on the line above it, and nowhere else. *)
  let path = Filename.temp_file "repcheck_supp" ".ml" in
  write_lines path
    [
      "let untagged = 1";
      "(* repcheck: allow — justified *)";
      "let tagged_above = 2";
      "let tagged_inline = 3 (* repcheck: allow *)";
      "let shadowed = 4";
      "let clean = 5";
    ];
  let allowed line = Source.allowed (loc ~file:path ~line ~col:0) in
  Alcotest.(check bool) "plain line is not suppressed" false (allowed 1);
  Alcotest.(check bool) "tag on the previous line covers" true (allowed 3);
  Alcotest.(check bool) "inline tag covers" true (allowed 4);
  Alcotest.(check bool) "inline tag covers one line down" true (allowed 5);
  Alcotest.(check bool) "tag reaches no further" false (allowed 6);
  Sys.remove path

(* --- key-space abstract domain ---------------------------------------- *)

let abs_t =
  Alcotest.testable
    (fun ppf a -> Format.pp_print_string ppf (Keyspace.to_string a))
    Keyspace.equal_abs

let test_keyspace_concat () =
  let open Keyspace in
  Alcotest.(check abs_t) "constants fuse" (Const "ab")
    (concat (Const "a") (Const "b"));
  Alcotest.(check abs_t) "empty constant drops" (Param 0)
    (concat (Const "") (Param 0));
  Alcotest.(check abs_t) "nested concats flatten"
    (Concat [ Const "a-"; Param 0; Const "-b" ])
    (concat (concat (Const "a-") (Param 0)) (Const "-b"));
  Alcotest.(check abs_t) "top poisons" Top (concat (Param 0) Top)

let test_keyspace_sets () =
  let open Keyspace in
  Alcotest.(check (list abs_t))
    "union sorts and dedups"
    [ Const "x"; Param 0 ]
    (union [ Param 0; Const "x" ] [ Const "x" ]);
  Alcotest.(check (list abs_t))
    "top absorbs the set" [ Top ]
    (add Top [ Const "x"; Param 0 ]);
  Alcotest.(check (list abs_t))
    "widening past the cardinality bound" [ Top ]
    (normalize (List.init (widen_limit + 1) (fun i -> Const (string_of_int i))))

let test_keyspace_subst () =
  let open Keyspace in
  Alcotest.(check abs_t) "actual replaces the parameter" (Const "k")
    (subst [ Const "k" ] (Param 0));
  Alcotest.(check abs_t) "missing actual degrades to top" Top
    (subst [] (Param 1));
  Alcotest.(check abs_t) "substitution under concat"
    (Concat [ Const "a-"; Param 2 ])
    (subst [ Param 2 ] (Concat [ Const "a-"; Param 0 ]));
  Alcotest.(check abs_t) "constant actual refolds the concat" (Const "a-x")
    (subst [ Const "x" ] (Concat [ Const "a-"; Param 0 ]))

let test_keyspace_covers () =
  let open Keyspace in
  Alcotest.(check bool) "top covers everything" true (covers [ Top ] (Param 3));
  Alcotest.(check bool) "membership covers" true
    (covers [ Const "x"; Param 0 ] (Param 0));
  Alcotest.(check bool) "no match, no cover" false
    (covers [ Param 0 ] (Param 1))

(* --- spec drift over the real Figure 4 table -------------------------- *)

let all_states = List.map Spec.state_name Spec.all_states

let spec_pairs =
  Specdrift.expand_spec ~all_states
    (List.map
       (fun (from_, target) ->
         (Option.map Spec.state_name from_, Spec.state_name target))
       Spec.edges)

let test_drift_clean () =
  (* code that takes exactly the specified transitions: empty diff *)
  let code_only, spec_only = Specdrift.diff ~spec_pairs ~code_pairs:spec_pairs in
  Alcotest.(check (list (pair string string))) "no code-only" [] code_only;
  Alcotest.(check (list (pair string string))) "no spec-only" [] spec_only

let test_drift_extra_transition () =
  (* a synthetic transition the engine never takes and Figure 4 does
     not have: it must surface as code-only drift, and nothing else *)
  let rogue = ("Non_prim", "Reg_prim") in
  assert (not (List.mem rogue spec_pairs));
  let code_only, spec_only =
    Specdrift.diff ~spec_pairs ~code_pairs:(rogue :: spec_pairs)
  in
  Alcotest.(check (list (pair string string)))
    "the rogue edge" [ rogue ] code_only;
  Alcotest.(check (list (pair string string))) "no spec-only" [] spec_only

let test_drift_missing_transition () =
  (* drop one specified edge from the code side: spec-only drift *)
  let dropped = ("Construct", "Reg_prim") in
  assert (List.mem dropped spec_pairs);
  let code_pairs = List.filter (fun e -> e <> dropped) spec_pairs in
  let code_only, spec_only = Specdrift.diff ~spec_pairs ~code_pairs in
  Alcotest.(check (list (pair string string))) "no code-only" [] code_only;
  Alcotest.(check (list (pair string string)))
    "the dropped edge" [ dropped ] spec_only

let test_expand_wildcard () =
  (* a None source expands to every state *)
  let pairs = Specdrift.expand_spec ~all_states [ (None, "Exchange_states") ] in
  Alcotest.(check int) "8 edges" (List.length all_states) (List.length pairs);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " -> Exchange_states") true
        (List.mem (s, "Exchange_states") pairs))
    all_states

(* --- the shared solver over a cyclic graph ---------------------------- *)

(* Mutual recursion plus a self-loop, with a leaf hanging off the cycle:
   ping -> {pong, ping}, pong -> {ping, leaf}. *)
let cyclic_succ = function
  | "ping" -> [ "pong"; "ping" ]
  | "pong" -> [ "ping"; "leaf" ]
  | _ -> []

let test_fixpoint_cycle_converges () =
  (* Union propagation of per-node labels along the edges: leaf holds
     "l", pong holds "m"; both parties of the cycle must end up with
     both, and the solver must stop. *)
  let labels = Hashtbl.create 4 in
  List.iter
    (fun (k, l) -> Hashtbl.replace labels k l)
    [ ("ping", []); ("pong", [ "m" ]); ("leaf", [ "l" ]) ];
  let steps = ref 0 in
  Callgraph.fixpoint
    (fun k ->
      incr steps;
      let cur = Hashtbl.find labels k in
      let next =
        List.sort_uniq compare
          (cur @ List.concat_map (Hashtbl.find labels) (cyclic_succ k))
      in
      Hashtbl.replace labels k next;
      next <> cur)
    [ "ping"; "pong"; "leaf" ];
  let strings = Alcotest.(list string) in
  Alcotest.(check strings) "ping inherits through the cycle" [ "l"; "m" ]
    (Hashtbl.find labels "ping");
  Alcotest.(check strings) "pong holds both" [ "l"; "m" ]
    (Hashtbl.find labels "pong");
  Alcotest.(check strings) "the leaf is unchanged" [ "l" ]
    (Hashtbl.find labels "leaf");
  (* Round one grows ping and pong, round two grows ping, round three
     confirms: three rounds over three nodes. *)
  Alcotest.(check int) "three rounds" 9 !steps

let test_reachable_cycle () =
  let strings = Alcotest.(list string) in
  Alcotest.(check strings) "each node once, depth-first preorder"
    [ "ping"; "pong"; "leaf" ]
    (Callgraph.reachable ~succ:cyclic_succ [ "ping" ]);
  Alcotest.(check strings) "a leaf reaches only itself" [ "leaf" ]
    (Callgraph.reachable ~succ:cyclic_succ [ "leaf" ]);
  let callers = function
    | "leaf" -> [ "pong" ]
    | "pong" -> [ "ping" ]
    | "ping" -> [ "ping"; "pong" ]
    | _ -> []
  in
  Alcotest.(check strings) "reverse edges reach the whole cycle"
    [ "leaf"; "pong"; "ping" ]
    (Callgraph.reachable ~succ:callers [ "leaf" ]);
  Alcotest.(check strings) "shared roots are not repeated"
    [ "pong"; "ping"; "leaf" ]
    (Callgraph.reachable ~succ:cyclic_succ [ "pong"; "ping"; "pong" ])

(* --- suppression bookkeeping ------------------------------------------ *)

let test_stale_suppressions () =
  let l = loc ~file:"x.ml" ~line:1 ~col:0 in
  let annotated = [ ("U.cache", l); ("U.pure_helper", l) ] in
  Alcotest.(check (list string))
    "only the unflagged annotation is stale" [ "U.pure_helper" ]
    (List.map fst
       (Globals.stale_suppressions ~annotated ~flagged:[ "U.cache" ]))

(* --- the cost lattice and budget grammar ------------------------------ *)

let test_cost_lattice () =
  let module L = Loops in
  Alcotest.(check int)
    "join is union" (L.batch lor L.queue) (L.join L.batch L.queue);
  Alcotest.(check bool) "top absorbs" true (L.is_top (L.join L.members L.top));
  Alcotest.(check bool) "subset fits" true (L.fits L.batch (L.batch lor L.queue));
  Alcotest.(check bool)
    "superset does not fit" false
    (L.fits (L.batch lor L.members) L.batch);
  Alcotest.(check bool)
    "constant allocation is always tolerated" true
    (L.fits (L.queue lor L.alloc_const) L.queue);
  Alcotest.(check bool) "top fits nothing" false (L.fits L.top L.top);
  Alcotest.(check string) "rendering order" "O(batch+members+queue+log)"
    (L.to_string (L.batch lor L.members lor L.queue lor L.log_bound));
  Alcotest.(check string) "empty set renders O(1)" "O(1)" (L.to_string L.const)

let test_cost_budget_grammar () =
  let module L = Loops in
  let budget = Alcotest.(option (pair int int)) in
  Alcotest.(check budget)
    "work-only budget bounds allocation too"
    (Some (L.batch lor L.members, L.batch lor L.members))
    (L.parse_budget "O(batch+members)");
  Alcotest.(check budget)
    "explicit alloc clause"
    (Some (L.queue, L.const))
    (L.parse_budget "O(queue); alloc O(1)");
  Alcotest.(check budget)
    "spaces are insignificant"
    (Some (L.batch, L.const))
    (L.parse_budget " O( batch ) ; alloc O( 1 ) ");
  Alcotest.(check budget) "unknown class rejected" None
    (L.parse_budget "O(n)");
  Alcotest.(check budget) "top is not spellable" None (L.parse_budget "O(top)");
  Alcotest.(check budget) "missing O() rejected" None (L.parse_budget "batch");
  Alcotest.(check budget) "trailing clause rejected" None
    (L.parse_budget "O(1); alloc O(1); alloc O(1)")

let test_cost_type_markers () =
  let module L = Loops in
  let cls = Alcotest.(option int) in
  Alcotest.(check cls) "membership type" (Some L.members)
    (L.classify_names [ "list"; "Node_id.t" ]);
  Alcotest.(check cls) "queue type wins over members"
    (Some L.queue)
    (L.classify_names [ "list"; "Node_id.t"; "Action.Id.t" ]);
  Alcotest.(check cls) "log frames" (Some L.log_bound)
    (L.classify_names [ "array"; "Wlog.frame" ]);
  Alcotest.(check cls) "unmarked type" None
    (L.classify_names [ "list"; "string" ])

let test_stale_trusted () =
  let refs = function
    | "root" -> [ "a"; "b" ]
    | "a" -> [ "waived"; "root" ] (* cycle back to the root *)
    | _ -> []
  in
  Alcotest.(check (list string))
    "only the unreachable waiver is stale" [ "orphan" ]
    (Loops.stale_trusted ~roots:[ "root" ] ~refs
       ~trusted:[ "waived"; "orphan" ])

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "dedup by (file, line, rule)" `Quick test_dedup;
          Alcotest.test_case "total order" `Quick test_order;
          Alcotest.test_case "json deterministic" `Quick
            test_json_deterministic;
          Alcotest.test_case "json escapes" `Quick test_json_escapes;
        ] );
      ( "suppression-tags",
        [
          Alcotest.test_case "allow tag scope" `Quick test_allow_tag_suppresses;
        ] );
      ( "keyspace",
        [
          Alcotest.test_case "concat normalization" `Quick test_keyspace_concat;
          Alcotest.test_case "set lattice" `Quick test_keyspace_sets;
          Alcotest.test_case "substitution" `Quick test_keyspace_subst;
          Alcotest.test_case "coverage" `Quick test_keyspace_covers;
        ] );
      ( "specdrift",
        [
          Alcotest.test_case "clean diff" `Quick test_drift_clean;
          Alcotest.test_case "extra transition is code-only drift" `Quick
            test_drift_extra_transition;
          Alcotest.test_case "dropped transition is spec-only drift" `Quick
            test_drift_missing_transition;
          Alcotest.test_case "wildcard source expands" `Quick
            test_expand_wildcard;
        ] );
      ( "solver",
        [
          Alcotest.test_case "fixpoint converges on a cycle" `Quick
            test_fixpoint_cycle_converges;
          Alcotest.test_case "reachability on a cycle" `Quick
            test_reachable_cycle;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "stale exemptions surface" `Quick
            test_stale_suppressions;
        ] );
      ( "cost",
        [
          Alcotest.test_case "summary lattice" `Quick test_cost_lattice;
          Alcotest.test_case "budget grammar" `Quick test_cost_budget_grammar;
          Alcotest.test_case "type markers" `Quick test_cost_type_markers;
          Alcotest.test_case "stale hotpath waivers" `Quick test_stale_trusted;
        ] );
    ]
