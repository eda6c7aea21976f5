(* The pattern-level rule catalogue: a visitor on the shared walk
   (Walk.visit) over whole units, reporting through the [Diag] sink,
   which drops findings on lines tagged with [Source.allow_tag].

   1. no-poly-id-compare — polymorphic [=] / [<>] / [compare] (and the
      other Stdlib comparison operators) must not be applied to the
      abstract identifier types [Node_id.t], [Action.Id.t], [Conf_id.t];
      use the owning module's equal/compare.

   2. no-engine-state-wildcard — [match] on [Types.engine_state] must
      enumerate its constructors: a [_ ->] branch silently absorbs any
      state later added to the protocol state machine.

   3. no-failwith-in-core — [failwith] / [assert false] are forbidden
      inside the core: the replication engine must degrade through its
      protocol states, not abort.

   4. no-ambient-nondeterminism — [Random] (however the module is
      spelled: [Stdlib.Random], via [open], or through a module alias)
      and wall-clock reads ([Unix.gettimeofday] / [Unix.time] /
      [Sys.time]) are forbidden outside lib/sim: reproducibility and
      the model checker's deterministic replay depend on all randomness
      flowing from [Repro_sim.Rng] and all time from the virtual clock.

   5. no-poly-id-hash — [Hashtbl.hash] / [seeded_hash] on the abstract
      id types would silently reshuffle on a representation change; use
      the owning module's [hash].

   6. no-wlog-recover-outside-persist — [Wlog.recover] may only be
      called from lib/core/persist.ml: the damage-verdict policy lives
      in [Persist.recover].

   7. no-disk-fault-config-outside-harness — [Disk.fault_config] may
      only be constructed in lib/harness (the nemesis campaigns),
      lib/storage (its defining library) and tests: a fault schedule
      wired directly into engine or protocol code would make faults
      part of normal operation instead of an injected experiment.

   8. no-unordered-iteration-in-db — [Hashtbl.iter] / [Hashtbl.fold]
      (including functor instances) inside lib/db: iteration order
      depends on hashing, so any replica-visible result derived from it
      is nondeterministic — the same source the procedure determinism
      verdict (Procfoot) tracks, surfaced as an ordinary finding.  Sort
      the result or tag the line if order provably cannot escape.

   9. no-phys-eq-on-value — [==] / [!=] applied to [Value.t] inside
      lib/db: physical identity is an allocation accident that differs
      across replicas replaying the same order; use [Value.equal]. *)

let id_type_suffixes = [ "Node_id.t"; "Action.Id.t"; "Conf_id.t"; "Id.t" ]
let poly_compare_names = [ "="; "<>"; "=="; "!="; "compare"; "<"; ">"; "<="; ">=" ]

let is_id_type ty =
  List.exists (fun suffix -> Cmt_load.has_type suffix ty) id_type_suffixes

let is_poly_hash name =
  List.mem name [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

let wlog_recover_allowed = [ "lib/core/persist.ml"; "lib/storage/wlog.ml" ]

let fault_config_allowed = [ "lib/harness/"; "lib/storage/"; "test/"; "bench/" ]

(* The database layer must be deterministic re-executable code (paper
   §6); fixtures are in scope so the seeded violations golden-test the
   rules. *)
let db_determinism_scope = [ "lib/db/"; "test/fixtures/" ]

let visitor ~core (graph : Callgraph.t) (sink : Diag.sink) : Walk.visitor =
 fun _ u e ->
  let src = u.Cmt_load.u_src in
  let in_core = Cmt_load.under core src in
  let in_sim = Cmt_load.has_prefix "lib/sim/" src in
  let in_db = Cmt_load.under db_determinism_scope src in
  (* The shared canonical speller (Callgraph.canonical): module aliases
     — including functor aliases — substituted, mangling stripped,
     Stdlib/wrapper prefixes dropped.  The same table the ambient-state
     and effect passes read, so an alias that hides [Random] from this
     rule would also hide a table from those — and none of them let it. *)
  let canonical p = Callgraph.canonical graph ~caller_unit:u.Cmt_load.u_name p in
  match e.exp_desc with
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
    when Cmt_load.stdlib_ident p poly_compare_names ->
    let op = match p with Path.Pdot (_, s) -> s | _ -> assert false in
    List.iter
      (function
        | _, Some (arg : Typedtree.expression) when is_id_type arg.exp_type ->
          Diag.addf sink ~rule:"no-poly-id-compare" ~loc:e.exp_loc
            "polymorphic (%s) applied to abstract id type %s; use the \
             module's equal/compare"
            op
            (match Cmt_load.type_constr_name arg.exp_type with
            | Some n -> n
            | None -> "?")
        | _, Some (arg : Typedtree.expression)
          when in_db
               && (op = "==" || op = "!=")
               && Cmt_load.has_type "Value.t" arg.exp_type ->
          Diag.addf sink ~rule:"no-phys-eq-on-value" ~loc:e.exp_loc
            "physical equality on Value.t is an allocation accident, not \
             replicated state; use Value.equal"
        | _ -> ())
      args
  | Typedtree.Texp_match (scrut, cases, _)
    when Cmt_load.has_type "engine_state" scrut.exp_type ->
    List.iter
      (fun (c : Typedtree.computation Typedtree.case) ->
        let is_wild =
          match c.Typedtree.c_lhs.Typedtree.pat_desc with
          | Typedtree.Tpat_value arg -> (
            match
              (arg :> Typedtree.value Typedtree.general_pattern)
                .Typedtree.pat_desc
            with
            | Typedtree.Tpat_any -> true
            | _ -> false)
          | _ -> false
        in
        if is_wild then
          Diag.addf sink ~rule:"no-engine-state-wildcard"
            ~loc:c.Typedtree.c_lhs.Typedtree.pat_loc
            "match on engine_state uses a _ branch; enumerate the states \
             so new ones fail exhaustiveness")
      cases
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
    when is_poly_hash (canonical p) ->
    List.iter
      (function
        | _, Some (arg : Typedtree.expression) when is_id_type arg.exp_type ->
          Diag.addf sink ~rule:"no-poly-id-hash" ~loc:e.exp_loc
            "Hashtbl.hash applied to abstract id type %s; use the owning \
             module's hash"
            (match Cmt_load.type_constr_name arg.exp_type with
            | Some n -> n
            | None -> "?")
        | _ -> ())
      args
  | Typedtree.Texp_ident (p, _, _)
    when Cmt_load.is_named "Wlog.recover" (canonical p)
         && not (List.mem src wlog_recover_allowed) ->
    Diag.addf sink ~rule:"no-wlog-recover-outside-persist" ~loc:e.exp_loc
      "Wlog.recover called from %s; the damage-verdict policy lives in \
       Repro_core.Persist.recover — go through it"
      src
  | Typedtree.Texp_ident (p, _, _)
    when (not in_sim) && Effects.is_random_name (canonical p) ->
    Diag.addf sink ~rule:"no-ambient-nondeterminism" ~loc:e.exp_loc
      "%s outside lib/sim; draw randomness from Repro_sim.Rng and time \
       from the virtual clock"
      (canonical p)
  | Typedtree.Texp_ident (p, _, _)
    when in_db && List.mem (canonical p) Effects.unordered_prims ->
    Diag.addf sink ~rule:"no-unordered-iteration-in-db" ~loc:e.exp_loc
      "%s in the database layer: hash-order iteration is a \
       nondeterminism source for replica-visible results; sort the \
       result or tag the line with (* %s *)"
      (canonical p) Source.allow_tag
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _)
    when in_core && Cmt_load.stdlib_ident p [ "failwith" ] ->
    Diag.addf sink ~rule:"no-failwith-in-core" ~loc:e.exp_loc
      "the protocol core must not abort; return through the protocol \
       state machine or tag the line with (* %s *)"
      Source.allow_tag
  | Typedtree.Texp_assert
      ( {
          exp_desc =
            Typedtree.Texp_construct (_, { cstr_name = "false"; _ }, _);
          _;
        },
        loc )
    when in_core ->
    Diag.addf sink ~rule:"no-failwith-in-core" ~loc
      "assert false in the protocol core; handle the case or tag the line \
       with (* %s *)"
      Source.allow_tag
  | Typedtree.Texp_record { fields = _; _ }
    when Cmt_load.has_type "fault_config" e.exp_type
         && not (Cmt_load.under fault_config_allowed src) ->
    Diag.addf sink ~rule:"no-disk-fault-config-outside-harness" ~loc:e.exp_loc
      "Disk.fault_config constructed in %s; fault schedules belong to \
       lib/harness (nemesis campaigns) and tests"
      src
  | _ -> ()
