(* Integration tests over the bundled benchmark programs: every
   workload parses, classifies to the paper's parallelism kind, and
   expands; the fast ones are executed end-to-end (the expanded and
   simulated-parallel runs must pass the verdict against the
   original). *)

open Minic

let load (w : Workloads.Workload.t) =
  let p =
    Typecheck.parse_and_check ~file:w.Workloads.Workload.name
      w.Workloads.Workload.source
  in
  let lids = p.Ast.parallel_loops in
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  (p, lids, analyses)

(* Golden dependence-graph digests (see golden.ml), one per parallel
   loop, recorded with the earlier per-byte-record profiler (h263's
   second with formal ids drawn by the type checker). *)
let golden =
  [
    ("dijkstra", [ "5f6c44c8cc980d395fca4056c430d6f1" ]);
    ("md5", [ "75f650f1d9c6237cc5a3d41318ea8d49" ]);
    ("mpeg2-encoder", [ "27f449817cd2d975f2d73921a6bd46c5" ]);
    ("mpeg2-decoder", [ "5d37231277ce06bc114f50a73e1e0e57" ]);
    ( "h263-encoder",
      [ "95aba2e495cbcd4dd072a9a6e945b6ad"; "53f74cbd3e507206c69f65f8579a05c4" ]
    );
    ("256.bzip2", [ "5d00684ea83d65142144032385c40bee" ]);
    ("456.hmmer", [ "9819a59dc92aa1bd1c2ab337f4f33ad7" ]);
    ("470.lbm", [ "59627004741d3b918b52fff7f0f6814b" ]);
  ]

let static_checks (w : Workloads.Workload.t) () =
  let p, lids, analyses = load w in
  Golden.check w.Workloads.Workload.name
    (List.assoc w.Workloads.Workload.name golden)
    analyses;
  Alcotest.(check int)
    "number of parallel loops"
    (List.length w.Workloads.Workload.loop_functions)
    (List.length lids);
  (* parallelism kind matches the paper's Table 4 *)
  let kinds =
    List.map
      (fun (a : Privatize.Analyze.result) ->
        match
          Privatize.Classify.parallelism_kind
            a.Privatize.Analyze.classification
        with
        | `Doall -> "DOALL"
        | `Doacross -> "DOACROSS")
      analyses
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "parallelism kind"
    [ w.Workloads.Workload.paper_parallelism ]
    kinds;
  (* expansion runs and privatizes a structure count near the paper's *)
  let res = Expand.Transform.expand_loops p analyses in
  let ours = res.Expand.Transform.privatized in
  let paper = w.Workloads.Workload.paper_privatized in
  Alcotest.(check bool)
    (Printf.sprintf "privatized count %d within 2 of paper's %d" ours paper)
    true
    (abs (ours - paper) <= 2);
  (* loops dominate execution like Table 4's %time column *)
  let prof_loop =
    List.fold_left
      (fun acc (a : Privatize.Analyze.result) ->
        acc
        + a.Privatize.Analyze.profile.Depgraph.Profiler.graph
            .Depgraph.Graph.loop_cycles)
      0 analyses
  in
  let total =
    (List.hd analyses).Privatize.Analyze.profile.Depgraph.Profiler.graph
      .Depgraph.Graph.total_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "loops are >2/3 of runtime (%d/%d)" prof_loop total)
    true
    (float_of_int prof_loop > 0.66 *. float_of_int total)

(* bench/BASELINE.json, readable from the test directory (dune
   runtest) or the repository root *)
let baseline_cycles key =
  let file =
    if Sys.file_exists "bench/BASELINE.json" then "bench/BASELINE.json"
    else "../bench/BASELINE.json"
  in
  match Harness.History.load ~file with
  | [ e ] -> int_of_float (List.assoc key e.Harness.History.h_metrics)
  | es -> Alcotest.failf "expected one pinned entry, got %d" (List.length es)

let end_to_end (w : Workloads.Workload.t) () =
  let p, _, analyses = load w in
  let oracle = Guard.Contract.oracle_of p [] in
  let res = Expand.Transform.expand_loops p analyses in
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  Judge.sequential oracle res 8;
  let pr = Judge.simulated oracle res specs ~threads:8 in
  (* the simulated total depends on the order in which the cache model
     and DOACROSS post/wait see every access and its cycle offset *)
  Alcotest.(check int) "par_total@8 as in bench/BASELINE.json"
    (baseline_cycles (w.Workloads.Workload.name ^ "/cycles/par_total@8"))
    pr.Parexec.Sim.pr_total

let () =
  let static_cases =
    List.map
      (fun w ->
        Alcotest.test_case w.Workloads.Workload.name `Slow (static_checks w))
      Workloads.Registry.all
  in
  let e2e_cases =
    (* keep the suite fast: execute the two cheapest benchmarks fully;
       the experiments binary exercises the rest *)
    List.map
      (fun name ->
        Alcotest.test_case name `Slow
          (end_to_end (Workloads.Registry.find name)))
      [ "md5"; "456.hmmer" ]
  in
  Alcotest.run "workloads"
    [ ("static", static_cases); ("end-to-end", e2e_cases) ]
