type procedure_trace = {
  t_proc : string;
  t_args : Value.t list;
  t_reads : string list;
  t_writes : string list;
}

(* Work and allocation are bounded by the action's own payload (its key
   list / op list / procedure body), independent of group size, queue
   depth or log length — constant per action for the cost lattice. *)
let execute ?on_procedure ~procs db (action : Action.t) : Action.response =
  match action.kind with
  | Action.Query keys -> Action.Committed (Database.read db keys)
  | Action.Update ops ->
    Database.apply db ops;
    Action.Committed []
  | Action.Read_write (keys, ops) ->
    let results = Database.read db keys in
    Database.apply db ops;
    Action.Committed results
  | Action.Active { proc; args } -> (
    match Procedure.find procs proc with
    | Some body ->
      let { Procedure.updates; output } =
        match on_procedure with
        | None -> body db args
        | Some hook ->
          (* Observe the body's actual key accesses for the footprint
             validator: reads via the database trace, writes from the
             emitted ops. *)
          let reads = ref [] in
          Database.set_trace db (Some (fun k -> reads := k :: !reads));
          let result =
            Fun.protect
              ~finally:(fun () -> Database.set_trace db None)
              (fun () -> body db args)
          in
          hook
            {
              t_proc = proc;
              t_args = args;
              t_reads = List.sort_uniq compare !reads;
              t_writes =
                List.sort_uniq compare (List.map Op.key result.Procedure.updates);
            };
          result
      in
      Database.apply db updates;
      Action.Procedure_output output
    | None -> Action.Aborted)
  | Action.Interactive { expected; updates } ->
    let still_valid =
      List.for_all
        (fun (k, expected_v) ->
          match (Database.get db k, expected_v) with
          | None, None -> true
          | Some v, Some e -> Value.equal v e
          | _ -> false)
        expected
    in
    if still_valid then begin
      Database.apply db updates;
      Action.Committed []
    end
    else Action.Aborted
  | Action.Join _ | Action.Leave _ -> Action.Committed []
  [@@analysis.cost "O(1); alloc O(1)"]
