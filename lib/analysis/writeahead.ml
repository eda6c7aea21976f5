(* Write-ahead ordering: on every intraprocedural path through the core,
   a stable-storage force must dominate the corresponding GCS send.

   The paper's discipline (§4, Figure 5): an action is multicast only
   after the log record that describes it has been forced — the
   [vulnerable] record exists precisely to close the crash window that
   opens if the order is reversed.  The engine encodes the discipline
   in continuation-passing style: [Persist.sync t (fun () -> send ...)]
   runs the send once durability is confirmed, and the force itself is
   asynchronous, so code textually *after* the sync call runs *before*
   durability.  The analysis therefore tracks, along every path of
   every core function, whether an un-forced log append is pending:

   - a call with the Persist effect sets pending (and nothing in
     straight line ever clears it — only entering a continuation passed
     to a Force-effecting callee does, because only there has the force
     completed);
   - reaching a protocol send point — an application of a
     [send]-labelled record field, or a call to a function with the
     UnguardedSend effect — while pending is a violation.

   Branches fork the pending flag and rejoin with OR, so a send is
   flagged if *any* path reaches it with an un-forced append. *)

let rule = "write-ahead-ordering"

let check_fn (eff : Effects.t) (fn : Callgraph.fn) (sink : Diag.sink) =
  let caller_unit = fn.Callgraph.f_scope in
  let transfer go () pending (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) ->
      let labels, resolved = Effects.callee eff ~caller_unit f in
      let has l = labels land l <> 0 in
      let p = ref pending in
      (match f.exp_desc with
      | Typedtree.Texp_field (obj, _, lbl) when lbl.lbl_name = "send" ->
        p := go () !p obj;
        if !p then
          Diag.addf sink ~rule ~loc:e.exp_loc
            "group-communication send before the log force completes: the \
             multicast must run in the continuation of the stable-storage \
             sync (paper §4: the vulnerable record only covers an action \
             whose log record is durable first)"
      | _ -> p := go () !p f);
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some a when has Effects.force && Effects.is_fun_literal a ->
            (* the force's continuation: durability holds inside *)
            ignore (go () false a)
          | Some a -> p := go () !p a
          | None -> ())
        args;
      if has Effects.unguarded_send && !p then
        Diag.addf sink ~rule ~loc:e.exp_loc
          "call to %s multicasts before the log force completes: the send \
           must be dominated by the stable-storage sync (paper §4, \
           vulnerable-record discipline)"
          (match resolved with
          | Some g -> Cmt_load.demangle g.Callgraph.f_key
          | None -> "a sending function");
      Some (!p || has Effects.persist)
    | _ -> None
  in
  (* Branches fork the flag and rejoin with OR; a literal's body may run
     where it occurs, so its exit flows on. *)
  ignore
    (Walk.fold
       { transfer; refine = Walk.no_refine; join = ( || );
         literal = (fun _ exit -> exit) }
       () false fn.Callgraph.f_expr)

(* Check every function of the units under the core prefixes. *)
let run (eff : Effects.t) ~core (sink : Diag.sink) =
  List.iter
    (fun fn -> check_fn eff fn sink)
    (Callgraph.table_fns ~within:core eff.Effects.graph)
