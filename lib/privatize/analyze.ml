(** One-call front door: profile a loop and classify its accesses. *)

open Minic

type result = {
  profile : Depgraph.Profiler.profile;
  classification : Classify.classification;
  induction_vars : string list;
  loop_stmt : Ast.stmt;
  loop_fun : Ast.fundef;
}

let of_profile (prog : Ast.program) (lid : Ast.lid)
    (profile : Depgraph.Profiler.profile) : result =
  let loop_fun, loop_stmt =
    match Visit.find_loop_fun prog lid with
    | Some fs -> fs
    | None -> invalid_arg (Printf.sprintf "analyze: no loop with id %d" lid)
  in
  let induction_vars, classification =
    Telemetry.Span.wall "phase.classify" @@ fun () ->
    let induction_vars = Induction.find prog loop_stmt in
    let induction =
      Induction.access_ids_of_vars
        profile.Depgraph.Profiler.graph.Depgraph.Graph.sites prog loop_stmt
        induction_vars
    in
    let classification =
      Classify.classify ~induction profile.Depgraph.Profiler.graph
    in
    (induction_vars, classification)
  in
  if Telemetry.Sink.enabled () then begin
    let tally v =
      List.length
        (List.filter (fun (_, v', _) -> v' = v) classification.Classify.classes)
    in
    Telemetry.Span.count "classify.classes.private" (tally Classify.Private);
    Telemetry.Span.count "classify.classes.shared" (tally Classify.Shared);
    Telemetry.Span.count "classify.classes.induction" (tally Classify.Induction);
    (* decision provenance: how often each Definition-4/5 rule fired,
       and how many dependence edges back the verdicts up *)
    List.iter
      (fun (p : Classify.provenance) ->
        Telemetry.Span.count
          ("classify.rule."
          ^ String.map
              (fun c -> if c = ' ' || c = '/' then '_' else c)
              (Classify.rule_name p.Classify.p_rule))
          1;
        Telemetry.Span.count "classify.evidence.edges"
          (List.length p.Classify.p_evidence))
      classification.Classify.provenance
  end;
  { profile; classification; induction_vars; loop_stmt; loop_fun }

let analyze (prog : Ast.program) (lid : Ast.lid) : result =
  of_profile prog lid (Depgraph.Profiler.profile prog lid)
