(** Deterministic, seeded fault injection.

    Each fault models one way the expansion pipeline's trust can be
    betrayed in production, so the guards of [lib/guard] can be tested
    against known-bad inputs:

    - {!Drop_dep_edge}: the dependence profiler missed a loop-carried
      edge (incomplete profiling input), so re-classification wrongly
      privatizes an access class.
    - {!Force_misclassify}: a shared access class is declared private
      outright (an imprecise analysis trusting a wrong invariant).
    - {!Truncate_span}: the transformer's redirection arithmetic
      under-offsets thread copies by [k] bytes (miscompiled span).
    - {!Alloc_failure}: the [n]-th runtime allocation fails
      (out-of-memory under N-fold expansion).

    All choices are functions of [seed] alone — no wall-clock entropy —
    so every campaign run is reproducible. *)

open Minic

type kind =
  | Drop_dep_edge
  | Force_misclassify
  | Truncate_span of int  (** bytes subtracted from every span *)
  | Alloc_failure of int  (** which allocation fails (1-based) *)
  | Domain_crash of int  (** crash the chosen chunk's first n acquisitions *)
  | Domain_stall of int  (** stall the chosen chunk n times (watchdog food) *)
  | Writelog_corrupt of int  (** corrupt the chunk's write log n times *)
  | Steal_contention of int  (** force the first n steal CASes to lose *)

type t = { seed : int; kind : kind }

let make ~seed kind = { seed; kind }

let describe (t : t) : string =
  match t.kind with
  | Drop_dep_edge -> Printf.sprintf "drop-dep-edge(seed=%d)" t.seed
  | Force_misclassify -> Printf.sprintf "misclassify(seed=%d)" t.seed
  | Truncate_span k -> Printf.sprintf "truncate-span:%d(seed=%d)" k t.seed
  | Alloc_failure n -> Printf.sprintf "alloc-fail:%d(seed=%d)" n t.seed
  | Domain_crash n -> Printf.sprintf "domain-crash:%d(seed=%d)" n t.seed
  | Domain_stall n -> Printf.sprintf "domain-stall:%d(seed=%d)" n t.seed
  | Writelog_corrupt n ->
    Printf.sprintf "writelog-corrupt:%d(seed=%d)" n t.seed
  | Steal_contention n ->
    Printf.sprintf "steal-contention:%d(seed=%d)" n t.seed

let domain_level (t : t) : bool =
  match t.kind with
  | Domain_crash _ | Domain_stall _ | Writelog_corrupt _ | Steal_contention _
    -> true
  | Drop_dep_edge | Force_misclassify | Truncate_span _ | Alloc_failure _ ->
    false

(* SplitMix-style integer mixer: deterministic seeded index choice. *)
let mix (seed : int) (bound : int) : int =
  if bound <= 0 then 0
  else begin
    let z = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))
  end

(* Which chunk of a distributed invocation the domain-level fault
   targets. Pure in (seed, lid, inv, nchunks): every domain — and
   every retry of the same run — agrees on the target regardless of
   the (nondeterministic) steal schedule. *)
let target_chunk (t : t) ~(lid : int) ~(inv : int) ~(nchunks : int) : int =
  mix (t.seed lxor ((lid * 7919) + (inv * 104729))) nchunks

type application = {
  analyses : Privatize.Analyze.result list;
  verdicts_changed : bool;
      (** did the fault actually flip some verdict (a harmless fault
          leaves the pipeline's decisions intact)? *)
  note : string;  (** human-readable description of what was mangled *)
}

let unchanged analyses note = { analyses; verdicts_changed = false; note }

let private_set (a : Privatize.Analyze.result) : (Ast.aid, unit) Hashtbl.t =
  let s = Hashtbl.create 64 in
  Hashtbl.iter
    (fun aid v -> if v = Privatize.Classify.Private then Hashtbl.replace s aid ())
    a.Privatize.Analyze.classification.Privatize.Classify.verdicts;
  s

(* Re-classify an analysis from a (mangled) graph, recomputing the
   induction access ids the original classification used. *)
let reclassify (prog : Ast.program) (a : Privatize.Analyze.result)
    (g : Depgraph.Graph.t) : Privatize.Analyze.result =
  let induction =
    Privatize.Induction.access_ids_of_vars g.Depgraph.Graph.sites prog
      a.Privatize.Analyze.loop_stmt a.Privatize.Analyze.induction_vars
  in
  {
    a with
    Privatize.Analyze.classification = Privatize.Classify.classify ~induction g;
  }

(* Drop one loop-carried dependence edge. Candidates are scanned from a
   seeded start; prefer an edge whose removal flips some access to
   Private (the dangerous case the guards exist for), falling back to
   any carried edge when no removal changes the classification. *)
let drop_edge (t : t) (prog : Ast.program)
    (analyses : Privatize.Analyze.result list) : application =
  let candidates =
    List.concat_map
      (fun (a : Privatize.Analyze.result) ->
        let g = a.Privatize.Analyze.classification.Privatize.Classify.graph in
        List.filter_map
          (fun (e : Depgraph.Graph.edge) ->
            if e.Depgraph.Graph.e_carried then Some (a, e) else None)
          (List.sort compare (Depgraph.Graph.edges g)))
      analyses
  in
  match candidates with
  | [] -> unchanged analyses "no carried edges to drop"
  | _ ->
    let n = List.length candidates in
    let start = mix t.seed n in
    let apply (a, (e : Depgraph.Graph.edge)) =
      let g =
        Depgraph.Graph.copy
          a.Privatize.Analyze.classification.Privatize.Classify.graph
      in
      Depgraph.Graph.remove_edge g e;
      let a' = reclassify prog a g in
      let before = private_set a in
      let newly_private =
        List.exists
          (fun aid -> not (Hashtbl.mem before aid))
          (Privatize.Classify.private_aids
             a'.Privatize.Analyze.classification)
      in
      (a', newly_private, e)
    in
    let pick =
      let rec scan i best =
        if i >= n then best
        else
          let c = List.nth candidates ((start + i) mod n) in
          let ((_, newly_private, _) as r) = apply c in
          if newly_private then Some (c, r)
          else scan (i + 1) (match best with None -> Some (c, r) | b -> b)
      in
      scan 0 None
    in
    (match pick with
    | None -> unchanged analyses "no droppable edge"
    | Some ((orig_a, _), (a', newly_private, e)) ->
      let analyses' =
        List.map (fun a -> if a == orig_a then a' else a) analyses
      in
      {
        analyses = analyses';
        verdicts_changed = newly_private;
        note =
          Printf.sprintf
            "dropped carried %s edge %d -> %d of loop %d%s"
            (Depgraph.Graph.show_dep_kind e.Depgraph.Graph.e_kind)
            e.Depgraph.Graph.e_src e.Depgraph.Graph.e_dst
            a'.Privatize.Analyze.classification.Privatize.Classify.graph
              .Depgraph.Graph.loop
            (if newly_private then " (flips a class to private)"
             else " (classification unchanged)");
      })

(* Force one shared access class to Private. Prefer classes the
   classifier rejected for a hard reason (carried flow / exposed
   accesses) — privatizing those is genuinely unsound. *)
let force_misclassify (t : t)
    (analyses : Privatize.Analyze.result list) : application =
  let disqualified = function
    | Privatize.Classify.Has_carried_flow _
    | Privatize.Classify.Has_upwards_exposed _
    | Privatize.Classify.Has_downwards_exposed _ -> true
    | Privatize.Classify.Accepted | Privatize.Classify.No_carried_anti_or_output
      -> false
  in
  let candidates_of pred =
    List.concat_map
      (fun (a : Privatize.Analyze.result) ->
        List.filter_map
          (fun (members, v, reason) ->
            if v = Privatize.Classify.Shared && pred reason then
              Some (a, members, reason)
            else None)
          a.Privatize.Analyze.classification.Privatize.Classify.classes)
      analyses
  in
  let candidates =
    match candidates_of disqualified with
    | [] -> candidates_of (fun _ -> true)
    | cs -> cs
  in
  match candidates with
  | [] -> unchanged analyses "no shared class to misclassify"
  | _ ->
    let a, members, reason =
      List.nth candidates (mix t.seed (List.length candidates))
    in
    let c = a.Privatize.Analyze.classification in
    let verdicts = Hashtbl.copy c.Privatize.Classify.verdicts in
    List.iter
      (fun aid -> Hashtbl.replace verdicts aid Privatize.Classify.Private)
      members;
    let classes =
      List.map
        (fun ((ms, _, _) as cl) ->
          if ms == members then (ms, Privatize.Classify.Private, reason)
          else cl)
        c.Privatize.Classify.classes
    in
    let a' =
      {
        a with
        Privatize.Analyze.classification =
          { c with Privatize.Classify.verdicts; classes };
      }
    in
    {
      analyses = List.map (fun x -> if x == a then a' else x) analyses;
      verdicts_changed = true;
      note =
        Printf.sprintf
          "forced class {%s} of loop %d to private (classifier said %s)"
          (String.concat "," (List.map string_of_int members))
          c.Privatize.Classify.graph.Depgraph.Graph.loop
          (Privatize.Classify.show_reason reason);
    }

(** Apply the fault to the analysis pipeline's outputs. Pure with
    respect to its inputs: graphs are deep-copied before mangling. *)
let mangle (t : t) (prog : Ast.program)
    (analyses : Privatize.Analyze.result list) : application =
  match t.kind with
  | Drop_dep_edge -> drop_edge t prog analyses
  | Force_misclassify -> force_misclassify t analyses
  | Truncate_span k ->
    unchanged analyses (Printf.sprintf "spans truncated by %d bytes" k)
  | Alloc_failure n ->
    unchanged analyses (Printf.sprintf "allocation #%d will fail" n)
  | Domain_crash _ | Domain_stall _ | Writelog_corrupt _ | Steal_contention _
    ->
    unchanged analyses
      (Printf.sprintf "%s armed on the domain supervisor" (describe t))

(** The [span_shrink] to pass to [Expand.Transform.expand_loops]. *)
let span_shrink (t : t) : int option =
  match t.kind with Truncate_span k -> Some k | _ -> None

(** Arm machine-level faults on a loaded machine (from [Parexec.Sim]'s
    [attach] callback, so compile-time allocations are not counted). *)
let attach_machine (t : t) (m : Interp.Machine.t) : unit =
  match t.kind with
  | Alloc_failure n ->
    Interp.Memory.set_alloc_fault m.Interp.Machine.st.Interp.Machine.mem n
  | Drop_dep_edge | Force_misclassify | Truncate_span _ | Domain_crash _
  | Domain_stall _ | Writelog_corrupt _ | Steal_contention _ -> ()
