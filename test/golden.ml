(* Golden digests of the dependence profiler's results. One MD5 per
   profiled loop over everything a profile and the classification built
   on it carry: the sorted edges, the upwards-exposed, downwards-exposed
   and killed-after-loop sets, dynamic counts, iterations, invocations,
   loop and total cycles, output and exit code, then the classification's
   classes, provenance and synchronization channels in the order the
   classifier produced them (so any effect of the graph's table order
   shows up).

   A program's ids, its formals' included, are drawn when it is
   parsed and type-checked, so a digest does not depend on what ran on
   the program before. [render] gives the text a digest is taken over,
   for diffing. *)

let render (a : Privatize.Analyze.result) : string =
  let pr = a.Privatize.Analyze.profile in
  let g = pr.Depgraph.Profiler.graph in
  let cls = a.Privatize.Analyze.classification in
  let b = Buffer.create 4096 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let ints l = String.concat " " (List.map string_of_int l) in
  let keys tbl =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  let edge (e : Depgraph.Graph.edge) =
    Printf.sprintf "%d>%d:%s%s" e.Depgraph.Graph.e_src e.Depgraph.Graph.e_dst
      (Depgraph.Graph.dep_kind_name e.Depgraph.Graph.e_kind)
      (if e.Depgraph.Graph.e_carried then "/carried" else "")
  in
  line "loop %d" g.Depgraph.Graph.loop;
  List.iter
    (fun e -> line "edge %s" (edge e))
    (List.sort Depgraph.Graph.compare_edge (Depgraph.Graph.edges g));
  line "upwards %s" (ints (keys g.Depgraph.Graph.upwards_exposed));
  line "downwards %s" (ints (keys g.Depgraph.Graph.downwards_exposed));
  line "killed %s" (ints (keys g.Depgraph.Graph.killed_after_loop));
  List.iter
    (fun (aid, n) -> line "count %d %d" aid n)
    (List.sort compare
       (Hashtbl.fold
          (fun k v acc -> (k, v) :: acc)
          g.Depgraph.Graph.dyn_counts []));
  line "iterations %d invocations %d" g.Depgraph.Graph.iterations
    g.Depgraph.Graph.invocations;
  line "cycles loop %d total %d" g.Depgraph.Graph.loop_cycles
    g.Depgraph.Graph.total_cycles;
  line "exit %d output %S" pr.Depgraph.Profiler.exit_code
    pr.Depgraph.Profiler.output;
  List.iter
    (fun (aids, v, r) ->
      line "class %s %s %s" (ints aids)
        (Privatize.Classify.show_verdict v)
        (Privatize.Classify.show_reason r))
    cls.Privatize.Classify.classes;
  List.iter
    (fun (p : Privatize.Classify.provenance) ->
      line "provenance %s %s %s witness %s evidence %s"
        (ints p.Privatize.Classify.p_aids)
        (Privatize.Classify.show_verdict p.Privatize.Classify.p_verdict)
        (Privatize.Classify.rule_name p.Privatize.Classify.p_rule)
        (match p.Privatize.Classify.p_witness with
        | Some a -> string_of_int a
        | None -> "-")
        (String.concat " " (List.map edge p.Privatize.Classify.p_evidence)))
    cls.Privatize.Classify.provenance;
  List.iter
    (fun (aid, chan, write) -> line "channel %d %d %b" aid chan write)
    (Privatize.Classify.ordered_channels cls);
  Buffer.contents b

let digest (a : Privatize.Analyze.result) : string =
  Digest.to_hex (Digest.string (render a))

(* One digest per analysed loop, in loop order. *)
let check (name : string) (expected : string list)
    (analyses : Privatize.Analyze.result list) : unit =
  Alcotest.(check (list string))
    (name ^ ": dependence-graph digests")
    expected (List.map digest analyses)
