(* Benchmark harness.

   Two parts:

   1. Bechamel micro-benchmarks of the toolchain itself — one
      Test.make per pipeline stage and one per paper table/figure
      (each staged function regenerates that artifact for a fast
      benchmark, md5, so timings stay in the milliseconds range).

   2. The full evaluation reproduction: every table and figure of the
      paper regenerated over all eight benchmarks, printed in order.
      This is the part EXPERIMENTS.md's numbers come from; it is also
      available selectively via `dune exec bin/experiments.exe`. *)

open Bechamel
open Toolkit

let md5_workload = Workloads.Registry.find "md5"

(* Shared pipeline state for the staged functions (computed once). *)
let md5_prog =
  Minic.Typecheck.parse_and_check ~file:"md5"
    md5_workload.Workloads.Workload.source

let md5_lid = List.hd md5_prog.Minic.Ast.parallel_loops
let md5_analysis = Privatize.Analyze.analyze md5_prog md5_lid

let stage_tests =
  [
    Test.make ~name:"stage:parse+check"
      (Staged.stage (fun () ->
           ignore
             (Minic.Typecheck.parse_and_check ~file:"md5"
                md5_workload.Workloads.Workload.source)));
    Test.make ~name:"stage:profile-deps"
      (Staged.stage (fun () ->
           ignore (Depgraph.Profiler.profile md5_prog md5_lid)));
    Test.make ~name:"stage:classify"
      (Staged.stage (fun () ->
           ignore
             (Privatize.Classify.classify
                md5_analysis.Privatize.Analyze.profile.Depgraph.Profiler.graph)));
    Test.make ~name:"stage:alias-analysis"
      (Staged.stage (fun () -> ignore (Alias.Andersen.analyze md5_prog)));
    Test.make ~name:"stage:expand"
      (Staged.stage (fun () ->
           ignore (Expand.Transform.expand md5_prog md5_analysis)));
    Test.make ~name:"stage:expand-unoptimized"
      (Staged.stage (fun () ->
           ignore
             (Expand.Transform.expand ~selective:false ~optimize:false
                md5_prog md5_analysis)));
    Test.make ~name:"stage:interpret-original"
      (Staged.stage (fun () -> ignore (Interp.Machine.run_program md5_prog)));
  ]

(* One staged regeneration per paper artifact, on the fast benchmark. *)
let artifact_tests =
  let bench = Harness.Bench_run.load md5_workload in
  let benches = [ bench ] in
  List.map
    (fun (name, thunk) ->
      Test.make ~name:("artifact:" ^ name)
        (Staged.stage (fun () -> ignore (thunk ()))))
    (Harness.Figures.all benches)

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 50) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Analyze.merge ols instances [ results ]

let print_results results =
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let rect = window in
  let results =
    Bechamel_notty.Multiple.image_of_ols_results ~rect
      ~predictor:Measure.run results
  in
  Notty_unix.eol results |> Notty_unix.output_image

(* Per-test OLS run-cost estimates (ns), flattened over measures. *)
let estimates_of results : (string * float) list =
  Hashtbl.fold
    (fun _measure tbl acc ->
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> (name, e) :: acc
          | _ -> acc)
        tbl acc)
    results []
  |> List.sort compare

(* Deterministic simulated-cycle metrics per workload. The regression
   gate compares these — bechamel nanoseconds are machine-dependent
   noise, simulator cycles are reproducible to the last digit. *)
let cycles_of (b : Harness.Bench_run.t) : (string * int) list =
  let seq = Harness.Bench_run.seq b in
  ("seq_total", seq.Parexec.Sim.sq_total)
  :: ("seq_loop", Harness.Bench_run.loop_cycles_seq b)
  :: List.concat_map
       (fun t ->
         let p = Harness.Bench_run.par b ~threads:t in
         [
           ( Printf.sprintf "par_loop@%d" t,
             Harness.Bench_run.loop_cycles_par b ~threads:t );
           (Printf.sprintf "par_total@%d" t, p.Parexec.Sim.pr_total);
         ])
       Harness.Bench_run.thread_counts

let bench_name (b : Harness.Bench_run.t) =
  b.Harness.Bench_run.workload.Workloads.Workload.name

let cycles_json (b : Harness.Bench_run.t) : Telemetry.Json.t =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) (cycles_of b))

(* Wall-clock measurement on real domains: median-of-3 speedups at the
   gated domain counts, next to the host's core count (the numbers are
   only comparable between hosts with at least as many cores). *)
let wall_domains =
  List.filter (fun d -> d <= 4) Harness.Bench_run.thread_counts

let wall_repeats = 3

let wall_of (b : Harness.Bench_run.t) : (int * Harness.Bench_run.wall_result) list =
  List.map
    (fun d -> (d, Harness.Bench_run.wall ~repeats:wall_repeats b ~domains:d))
    wall_domains

let wall_json (b : Harness.Bench_run.t) : Telemetry.Json.t =
  let open Telemetry.Json in
  Obj
    [
      ("available", Int (Domexec.Exec.available_domains ()));
      ("repeats", Int wall_repeats);
      ( "speedup",
        Obj
          (List.map
             (fun (d, wr) ->
               (string_of_int d, Float wr.Harness.Bench_run.wr_speedup))
             (wall_of b)) );
    ]

(* Scheduler-health metrics from one traced run per domain count: the
   analyzer's report (utilization, steal success, imbalance, GC share)
   keyed by domain count, so CI trending can watch scheduler behavior
   alongside the raw speedups. Traced runs are separate from the timed
   wall samples — ring instrumentation never contaminates a timing. *)
let sched_json (b : Harness.Bench_run.t) : Telemetry.Json.t =
  Telemetry.Json.Obj
    (List.map
       (fun d ->
         ( string_of_int d,
           Domexec.Domtrace.Sched_report.to_json
             (Harness.Bench_run.sched b ~domains:d) ))
       wall_domains)

(* Critical-path summaries from the same traced runs sched_json draws
   on: the cycle-model and measured speedups plus the dominant
   critical-path segment class, keyed by domain count. The full
   artifact (per-class breakdown, what-if table) is `dsexpand
   --critical-path`'s output; this is the trend-friendly digest. *)
let critpath_json (b : Harness.Bench_run.t) : Telemetry.Json.t =
  let open Telemetry.Json in
  let seq_cycles =
    (Lazy.force b.Harness.Bench_run.contract_oracle).Guard.Contract.o_cycles
  in
  let seq_ns = Harness.Bench_run.wall_seq b in
  Obj
    (List.map
       (fun d ->
         let p = Harness.Bench_run.critpath b ~domains:d in
         let cls, share = Domexec.Critpath.dominant p in
         ( string_of_int d,
           Obj
             [
               ( "model_speedup",
                 Float (Domexec.Critpath.model_speedup p ~seq_cycles) );
               ( "measured_speedup",
                 Float (Domexec.Critpath.measured_speedup p ~seq_ns) );
               ("dominant", Str cls);
               ("dominant_share", Float share);
               ("wall_ns", Float (Domexec.Critpath.wall_ns p));
             ] ))
       wall_domains)

(* Machine-readable results for CI trending; the schema is documented
   in EXPERIMENTS.md ("dsexpand-bench/5"). *)
let results_json ~fast ~stages ~artifacts (benches : Harness.Bench_run.t list)
    : Telemetry.Json.t =
  let open Telemetry.Json in
  let ns_obj kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs) in
  let at_threads f ts =
    Obj (List.map (fun t -> (string_of_int t, Float (f ~threads:t))) ts)
  in
  let workload (b : Harness.Bench_run.t) =
    Obj
      [
        ("name", Str (bench_name b));
        ("cycles", cycles_json b);
        ( "loop_speedup",
          at_threads
            (fun ~threads -> Harness.Bench_run.loop_speedup b ~threads)
            Harness.Bench_run.thread_counts );
        ( "total_speedup",
          at_threads
            (fun ~threads -> Harness.Bench_run.total_speedup b ~threads)
            Harness.Bench_run.thread_counts );
        ("wall", wall_json b);
        ("sched", sched_json b);
        ("critpath", critpath_json b);
        ( "memory_multiple",
          at_threads
            (fun ~threads -> Harness.Bench_run.memory_multiple b ~threads)
            [ 4; 8 ] );
      ]
  in
  Obj
    [
      ("schema", Str "dsexpand-bench/5");
      ("fast", Bool fast);
      ("stages_ns", ns_obj stages);
      ("artifacts_ns", ns_obj artifacts);
      ("workloads", List (List.map workload benches));
    ]

(* ------------------------------------------------------------------ *)
(* History entries (`--record`, `--history`, `--compare`)              *)
(* ------------------------------------------------------------------ *)

let history_file = "bench/HISTORY.jsonl"

(* Flatten one run into the history's metric-key -> value pairs. Key
   naming carries the analyzer's comparison semantics (see
   Harness.History): "/cycles/" keys gate exactly (deterministic),
   "speedup" keys gate loose (host noise), and the critpath digest
   keys are deliberately named so they stay informational — a traced
   run's measured speedup is noisier than the clean wall samples and
   should be trended, not gated. *)
let history_metrics (benches : Harness.Bench_run.t list) :
    (string * float) list =
  List.concat_map
    (fun b ->
      let name = bench_name b in
      let cyc =
        List.map
          (fun (k, v) ->
            (Printf.sprintf "%s/cycles/%s" name k, float_of_int v))
          (cycles_of b)
      in
      let wall =
        List.map
          (fun (d, wr) ->
            ( Printf.sprintf "%s/wall@%d/speedup" name d,
              wr.Harness.Bench_run.wr_speedup ))
          (wall_of b)
      in
      let seq_cycles =
        (Lazy.force b.Harness.Bench_run.contract_oracle).Guard.Contract.o_cycles
      in
      let seq_ns = Harness.Bench_run.wall_seq b in
      let crit =
        List.concat_map
          (fun d ->
            let p = Harness.Bench_run.critpath b ~domains:d in
            let _, share = Domexec.Critpath.dominant p in
            [
              ( Printf.sprintf "%s/critpath@%d/model" name d,
                Domexec.Critpath.model_speedup p ~seq_cycles );
              ( Printf.sprintf "%s/critpath@%d/measured" name d,
                Domexec.Critpath.measured_speedup p ~seq_ns );
              (Printf.sprintf "%s/critpath@%d/dominant_share" name d, share);
            ])
          wall_domains
      in
      cyc @ wall @ crit)
    benches

(* This run as one history entry: what --record appends, what
   --compare gates against the pinned baseline entry, and what
   --update-baseline pins. *)
let history_entry ~fast (benches : Harness.Bench_run.t list) :
    Harness.History.entry =
  {
    Harness.History.h_time = Unix.gettimeofday ();
    h_rev = Harness.History.git_rev ();
    h_domains = Domain.recommended_domain_count ();
    h_config = (if fast then "fast" else "full");
    h_metrics = history_metrics benches;
  }

let write_json file json =
  let oc = open_out file in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* The overhead gates below compare one executor configuration with
   the raw executor on 2 forced domains (force:true: the parallel
   scheduler path is what is being costed, and it is correct, just not
   faster, on any core count). The extra configuration may cost at
   most 5% plus 2 ms of fixed slack, for sub-millisecond loops, over
   the raw one. Repeats interleave the two sides and alternate which
   runs first, and each side keeps its minimum: host noise drifts over
   seconds, so back-to-back batches would compare two different
   machines, and always running one side first would hand it the state
   the previous pair left. The minimum is each side's least-disturbed
   run. Returns the number of regressed workloads. *)
let overhead_gate ~title ~label ~repeats (benches : Harness.Bench_run.t list)
    (extra : Minic.Ast.program -> Expand.Plan.t -> Minic.Ast.lid list -> float)
    : int =
  let domains = 2 in
  let regressions = ref 0 in
  Printf.printf "\n== %s (domains=%d, limit +5%% / +2 ms) ==\n" title domains;
  List.iter
    (fun (b : Harness.Bench_run.t) ->
      let prog = b.Harness.Bench_run.expanded.Expand.Transform.transformed in
      let plan = b.Harness.Bench_run.expanded.Expand.Transform.plan in
      let lids = b.Harness.Bench_run.lids in
      let raw_run () =
        (Domexec.Exec.run ~domains ~force:true prog plan lids)
          .Domexec.Exec.dx_wall_ns
      in
      let ext_run () = extra prog plan lids in
      let raw = ref infinity and ext = ref infinity in
      let take r f = r := Float.min !r (f ()) in
      for k = 1 to repeats do
        if k mod 2 = 1 then begin
          take raw raw_run;
          take ext ext_run
        end
        else begin
          take ext ext_run;
          take raw raw_run
        end
      done;
      let raw = !raw and delta = !ext -. !raw in
      let worse = delta > (raw *. 0.05) +. 2e6 in
      if worse then incr regressions;
      Printf.printf "%-16s raw %8.2f ms, %s delta %+8.2f ms  %+6.1f%%%s\n"
        (bench_name b) (raw /. 1e6) label (delta /. 1e6)
        (delta /. raw *. 100.)
        (if worse then "  REGRESSION" else ""))
    benches;
  !regressions

(* Fault-free supervision overhead. Part of --compare, so an expensive
   supervisor counts as a regression. *)
let supervisor_overhead_check benches =
  overhead_gate ~title:"supervisor overhead, fault-free" ~label:"supervision"
    ~repeats:3 benches (fun prog plan lids ->
      match
        (Domexec.Supervisor.run ~domains:2 ~force:true prog plan lids)
          .Domexec.Supervisor.sup_result
      with
      | Some r -> r.Domexec.Exec.dx_wall_ns
      | None -> infinity)

(* Ring instrumentation overhead: a run with a Domtrace recorder
   attached. Part of --compare, so the always-available observability
   path can never quietly become expensive. *)
let domtrace_overhead_check benches =
  overhead_gate ~title:"domtrace ring overhead" ~label:"tracing" ~repeats:5
    benches (fun prog plan lids ->
      let tr = Domexec.Domtrace.create () in
      (Domexec.Exec.run ~domains:2 ~force:true ~trace:tr prog plan lids)
        .Domexec.Exec.dx_wall_ns)

let () =
  let argv = Array.to_list Sys.argv in
  let fast = List.mem "--fast" argv in
  let rec arg_of flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> arg_of flag rest
    | [] -> None
  in
  let workloads_for () =
    if fast then [ md5_workload ] else Workloads.Registry.all
  in
  (* --compare: this run's history entry against the pinned baseline
     entries in FILE, plus the in-run overhead checks; no bechamel, no
     artifact regeneration *)
  (match arg_of "--compare" argv with
  | Some file ->
    let pinned = Harness.History.load ~file in
    if pinned = [] then begin
      Printf.eprintf "%s: no baseline entry\n" file;
      exit 2
    end;
    let benches = List.map Harness.Bench_run.load (workloads_for ()) in
    let current = history_entry ~fast benches in
    let series = Harness.History.against ~pinned current in
    Printf.printf "== regression gate vs %s ==\n" file;
    print_string (Harness.History.render (pinned @ [ current ]) series);
    (* explicit lets: OCaml evaluates [+] right-to-left, which would
       print the report sections in reverse *)
    let sup_reg = supervisor_overhead_check benches in
    let ring_reg = domtrace_overhead_check benches in
    let regressions = Harness.History.regressions series + sup_reg + ring_reg in
    if regressions > 0 then begin
      Printf.printf "%d metric(s) regressed beyond tolerance\n" regressions;
      exit 1
    end
    else begin
      print_endline "no regressions";
      exit 0
    end
  | None -> ());
  (* --update-baseline: pin this run as the one entry of the baseline
     file (default: the checked-in bench/BASELINE.json) *)
  if List.mem "--update-baseline" argv then begin
    let file =
      match arg_of "--update-baseline" argv with
      | Some v when String.length v > 0 && v.[0] <> '-' -> v
      | _ -> "bench/BASELINE.json"
    in
    let benches = List.map Harness.Bench_run.load (workloads_for ()) in
    let entry = history_entry ~fast benches in
    write_json file (Harness.History.entry_to_json entry);
    Printf.printf "updated %s\n" file;
    exit 0
  end;
  (* --record: append this run's metrics to the persistent history
     (bench/HISTORY.jsonl) — deterministic cycles, wall speedups and
     the critpath digest; no bechamel, no artifact regeneration *)
  if List.mem "--record" argv then begin
    let file =
      Option.value (arg_of "--history-file" argv) ~default:history_file
    in
    let benches = List.map Harness.Bench_run.load (workloads_for ()) in
    let entry = history_entry ~fast benches in
    Harness.History.append ~file entry;
    Printf.printf "recorded %d metric(s) to %s (rev %s, config %s)\n"
      (List.length entry.Harness.History.h_metrics)
      file entry.Harness.History.h_rev entry.Harness.History.h_config;
    exit 0
  end;
  (* --history: trend/changepoint report over the recorded runs; exits
     non-zero when the latest run regressed a gated metric *)
  if List.mem "--history" argv then begin
    let file =
      Option.value (arg_of "--history-file" argv) ~default:history_file
    in
    let entries = Harness.History.load ~file in
    if entries = [] then begin
      Printf.printf "no history at %s (record one with `bench --record`)\n"
        file;
      exit 0
    end;
    let series = Harness.History.analyze entries in
    print_string (Harness.History.render entries series);
    exit (if Harness.History.regressions series > 0 then 1 else 0)
  end;
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock);
  print_endline "== toolchain stage micro-benchmarks (bechamel) ==";
  let stage_results =
    benchmark (Test.make_grouped ~name:"stages" ~fmt:"%s %s" stage_tests)
  in
  print_results stage_results;
  print_endline "";
  print_endline "== per-artifact regeneration timings on md5 (bechamel) ==";
  let artifact_results =
    benchmark (Test.make_grouped ~name:"artifacts" ~fmt:"%s %s" artifact_tests)
  in
  print_results artifact_results;
  print_newline ();
  Printf.printf "== full evaluation: all tables and figures, %s ==\n"
    (if fast then "md5 only (--fast)" else "all benchmarks");
  let benches = List.map Harness.Bench_run.load (workloads_for ()) in
  List.iter
    (fun (name, thunk) ->
      Printf.printf "\n--- %s ---\n%!" name;
      print_string (thunk ()))
    (Harness.Figures.all benches);
  let json =
    results_json ~fast
      ~stages:(estimates_of stage_results)
      ~artifacts:(estimates_of artifact_results)
      benches
  in
  write_json "BENCH_results.json" json;
  print_newline ();
  print_endline "wrote BENCH_results.json"
