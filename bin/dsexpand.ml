(** dsexpand — the source-to-source data structure expansion tool.

    Reads a MiniC file with [#pragma parallel] loop annotations (or a
    bundled benchmark via --workload), and then, per the subcommand
    flags:

    - prints the profiled dependence graph (--dump-deps),
    - prints the access-class classification (--report),
    - prints the expanded program (default),
    - runs original and expanded programs and checks equivalence
      (--check), optionally simulating a parallel run (--threads N),
    - runs the guarded degradation ladder (--ladder), optionally under
      an injected fault (--fault SPEC --seed N),
    - runs the whole fault-injection campaign (--campaign). *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

open Cmdliner

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"MiniC source file to process.")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          "Use a bundled benchmark program instead of a file (dijkstra, \
           md5, mpeg2-encoder, mpeg2-decoder, h263-encoder, 256.bzip2, \
           456.hmmer, 470.lbm).")

let dump_deps_arg =
  Arg.(value & flag & info [ "dump-deps" ] ~doc:"Print the dependence graph.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ] ~doc:"Print the access-class classification.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run original and expanded programs; verify equal output and \
           exit codes (with -t, of the simulated parallel run too); exit \
           1 on any mismatch.")

let threads_arg =
  Arg.(
    value & opt int 0
    & info [ "t"; "threads" ] ~docv:"N"
        ~doc:"With --check: also simulate a parallel run on N threads.")

let no_opt_arg =
  Arg.(
    value & flag
    & info [ "no-optimize" ]
        ~doc:"Disable the §3.4 span optimizations (Figure 9a mode).")

let unselective_arg =
  Arg.(
    value & flag
    & info [ "promote-all" ]
        ~doc:"Promote every pointer instead of only aliases of expanded data.")

let guard_arg =
  Arg.(
    value & flag
    & info [ "guard" ]
        ~doc:
          "With --check --threads: run the expanded program under span \
           guards and the privatization contract checker.")

let ladder_arg =
  Arg.(
    value & flag
    & info [ "ladder" ]
        ~doc:
          "Run the graceful-degradation ladder: guarded static expansion, \
           falling back to runtime privatization, then to sequential \
           execution, with structured diagnostics.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "With --ladder or --exec domains: inject a fault. SPEC is one of \
           drop-edge, misclassify, truncate-span:BYTES, alloc-fail:N, \
           domain-crash[:N], domain-stall[:N], writelog-corrupt[:N], \
           steal-contention[:N]. The domain-* and steal-contention kinds \
           are armed on the real-domain supervisor.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for the deterministic fault injector (with --fault).")

let campaign_arg =
  Arg.(
    value & flag
    & info [ "campaign" ]
        ~doc:
          "Run the full fault-injection campaign (every workload, clean \
           and under one fault of each kind) and print the ladder table; \
           $(b,-w) restricts the sweep to that one workload. With --exec \
           domains the grid also sweeps the domain-level faults through \
           the supervised real-domain rung.")

let campaign_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "campaign-json" ] ~docv:"FILE"
        ~doc:
          "With --campaign: also write the sweep as a JSON artifact \
           (schema dsexpand-campaign/2) to FILE.")

let retry_arg =
  Arg.(
    value & opt int 3
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "With --exec domains: supervised retry budget — both the \
           per-chunk acquisition attempts and the number of full run \
           attempts (default 3).")

let watchdog_ms_arg =
  Arg.(
    value & opt int 5000
    & info [ "watchdog-ms" ] ~docv:"MS"
        ~doc:
          "With --exec domains: per-chunk heartbeat deadline; a domain \
           holding a chunk longer than this aborts the attempt instead of \
           hanging the run (default 5000).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the run (load into \
           Perfetto or chrome://tracing). Deterministic: the same --seed \
           produces a byte-identical trace. With --exec domains it also \
           carries one pseudo-process per domain: the events of \
           --domain-trace, on the same logical ticks.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the telemetry metrics report (counters, span totals, and \
           — with --check --threads — the per-workload cost attribution) \
           after the run.")

let metrics_format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:"Format of the --metrics report: $(b,table) or $(b,json).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print decision provenance: which Definition-4/5 condition decided \
           each access class (with the dependence edges as evidence) and why \
           each privatized structure got its bonded/interleaved layout.")

let explain_format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "explain-format" ] ~docv:"FMT"
        ~doc:"Format of the --explain report: $(b,table) or $(b,json).")

let exec_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
    & info [ "exec" ] ~docv:"MODE"
        ~doc:
          "Executor for the expanded program: $(b,sim) (the default \
           cycle-accurate simulator, used by --check --threads) or \
           $(b,domains) (real parallel execution on OCaml 5 domains with a \
           work-stealing scheduler; always contract-checked against the \
           sequential original).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "With --exec domains: use N domains (default \
           Domain.recommended_domain_count; an explicit N forces parallel \
           execution even on a 1-core host).")

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"K"
        ~doc:
          "With --exec domains: iterations per scheduler chunk (default \
           trip / (4 * domains)).")

let domain_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "domain-trace" ] ~docv:"FILE"
        ~doc:
          "With --exec domains: record per-domain scheduler events (chunk \
           claim/start/finish, steals, retries, backoff, GC samples) into \
           lock-free rings and write the merged Chrome trace_event JSON to \
           FILE — one pseudo-process per domain, one ring set per \
           supervised attempt. Deterministic under a fixed --seed when the \
           schedule is race-free.")

let sched_report_arg =
  Arg.(
    value & flag
    & info [ "sched-report" ]
        ~doc:
          "With --exec domains: print the scheduler-health report (schema \
           dsexpand-domtrace/1) — per-domain busy/claim/steal/backoff/idle \
           utilization, steal success rate, load-imbalance coefficient, \
           straggler identification, and GC share, computed from the same \
           event rings as --domain-trace.")

let sched_format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "sched-format" ] ~docv:"FMT"
        ~doc:"Format of the --sched-report: $(b,table) or $(b,json).")

let critical_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "critical-path" ] ~docv:"FILE"
        ~doc:
          "With --exec domains: reconstruct the happens-before DAG from the \
           per-domain event rings, compute the cross-domain critical path, \
           and write the profile (schema dsexpand-critpath/1) to FILE. The \
           artifact's base object — schedule, event counts, and the \
           virtual-time (interpreter-cycle) model — is byte-reproducible \
           under a fixed --seed when the schedule is race-free (pin --chunk \
           so every domain gets at most one chunk).")

let whatif_arg =
  Arg.(
    value & flag
    & info [ "whatif" ]
        ~doc:
          "With --critical-path: append the host-clock measured section \
           (per-class critical-path contributions, dominant class, \
           exec-cycle inflation vs the sequential run) and the causal \
           what-if table — the estimated wall-clock speedup from shrinking \
           each segment class, and the heaviest single chunk, by \
           10/25/50/100%. These sections are measurements, not \
           reproducible bytes.")

let critpath_format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "critpath-format" ] ~docv:"FMT"
        ~doc:
          "Stdout rendering of the --critical-path profile: $(b,table) or \
           $(b,json) (the artifact file is always JSON).")

let heatmap_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "heatmap" ] ~docv:"FILE"
        ~doc:
          "Simulate a parallel run (N = --threads, default 4) with cache-line \
           attribution and write the heatmap JSON artifact (per-line owners, \
           false-sharing lines, per-copy span utilization) to FILE.")

let parse_fault ~seed spec =
  let fail () =
    prerr_endline
      ("unknown fault spec '" ^ spec
     ^ "' (expected drop-edge | misclassify | truncate-span:BYTES | \
        alloc-fail:N | domain-crash[:N] | domain-stall[:N] | \
        writelog-corrupt[:N] | steal-contention[:N])");
    exit 2
  in
  let pos n = match int_of_string_opt n with Some k when k > 0 -> k | _ -> fail () in
  let kind =
    match String.split_on_char ':' spec with
    | [ "drop-edge" ] -> Faultinject.Fault.Drop_dep_edge
    | [ "misclassify" ] -> Faultinject.Fault.Force_misclassify
    | [ "truncate-span"; n ] -> Faultinject.Fault.Truncate_span (pos n)
    | [ "alloc-fail"; n ] -> Faultinject.Fault.Alloc_failure (pos n)
    | [ "domain-crash" ] -> Faultinject.Fault.Domain_crash 1
    | [ "domain-crash"; n ] -> Faultinject.Fault.Domain_crash (pos n)
    | [ "domain-stall" ] -> Faultinject.Fault.Domain_stall 1
    | [ "domain-stall"; n ] -> Faultinject.Fault.Domain_stall (pos n)
    | [ "writelog-corrupt" ] -> Faultinject.Fault.Writelog_corrupt 1
    | [ "writelog-corrupt"; n ] -> Faultinject.Fault.Writelog_corrupt (pos n)
    | [ "steal-contention" ] -> Faultinject.Fault.Steal_contention 4
    | [ "steal-contention"; n ] -> Faultinject.Fault.Steal_contention (pos n)
    | _ -> fail ()
  in
  Faultinject.Fault.make ~seed kind

(* The --check --threads branch deposits its cost-attribution row here
   for the at_exit metrics report (so failure paths still report). *)
let metrics_row_stash : Report.Tables.metrics_row option ref = ref None

let attribution_json (r : Report.Tables.metrics_row) : Telemetry.Json.t =
  let cb = r.Report.Tables.m_breakdown in
  Telemetry.Json.Obj
    [
      ("workload", Telemetry.Json.Str r.Report.Tables.m_workload);
      ("threads", Telemetry.Json.Int r.Report.Tables.m_threads);
      ("loop_speedup", Telemetry.Json.Float r.Report.Tables.m_loop_speedup);
      ("total_speedup", Telemetry.Json.Float r.Report.Tables.m_total_speedup);
      ("compute_cycles", Telemetry.Json.Int cb.Report.Tables.cb_compute);
      ("cache_stall_cycles", Telemetry.Json.Int cb.Report.Tables.cb_cache);
      ("sync_stall_cycles", Telemetry.Json.Int cb.Report.Tables.cb_sync);
      ("privatization_cycles", Telemetry.Json.Int cb.Report.Tables.cb_priv);
      ("idle_cycles", Telemetry.Json.Int cb.Report.Tables.cb_idle);
      ("runtime_cycles", Telemetry.Json.Int cb.Report.Tables.cb_runtime);
    ]

(* The --trace collector, for the domain recorder to render into. *)
let trace_collector : Telemetry.Chrome_trace.t option ref = ref None

(** Install the aggregator (+ trace collector) and register the
    end-of-process report/trace dump. [at_exit] so the error paths
    ([exit 1]/[exit 2]) still write the trace and metrics collected so
    far. *)
let setup_telemetry ~trace ~metrics ~metrics_format : unit =
  if trace <> None || metrics then begin
    let agg = Telemetry.Counters.create () in
    let chrome = Telemetry.Chrome_trace.create () in
    if trace <> None then trace_collector := Some chrome;
    let sinks =
      Telemetry.Counters.sink agg
      ::
      (match trace with
      | Some _ -> [ Telemetry.Chrome_trace.sink chrome ]
      | None -> [])
    in
    Telemetry.Sink.install (Telemetry.Sink.tee sinks);
    at_exit (fun () ->
        Telemetry.Sink.clear ();
        Option.iter (Telemetry.Chrome_trace.write chrome) trace;
        if metrics then begin
          let snap = Telemetry.Counters.snapshot agg in
          match metrics_format with
          | `Json ->
            let fields =
              match Telemetry.Metrics.to_json snap with
              | Telemetry.Json.Obj fields -> fields
              | j -> [ ("metrics", j) ]
            in
            let attribution =
              match !metrics_row_stash with
              | None -> Telemetry.Json.Null
              | Some r -> attribution_json r
            in
            print_endline
              (Telemetry.Json.to_string
                 (Telemetry.Json.Obj
                    (fields @ [ ("attribution", attribution) ])))
          | `Table ->
            (match !metrics_row_stash with
            | Some row -> print_string (Report.Tables.metrics_table [ row ])
            | None -> ());
            print_string
              (Report.Tables.counters_table snap.Telemetry.Counters.counters)
        end)
  end

(* ------------------------------------------------------------------ *)
(* --explain / --heatmap                                               *)
(* ------------------------------------------------------------------ *)

let kind_name c =
  match Privatize.Classify.parallelism_kind c with
  | `Doall -> "DOALL"
  | `Doacross -> "DOACROSS"

let explain_json ~file (analyses : Privatize.Analyze.result list)
    (res : Expand.Transform.result) : Telemetry.Json.t =
  let open Telemetry.Json in
  let loop_json (a : Privatize.Analyze.result) =
    let c = a.Privatize.Analyze.classification in
    let g = c.Privatize.Classify.graph in
    Obj
      [
        ("loop", Int g.Depgraph.Graph.loop);
        ("function", Str a.Privatize.Analyze.loop_fun.Minic.Ast.fname);
        ("kind", Str (kind_name c));
        ( "classes",
          List
            (List.map
               (fun (p : Privatize.Classify.provenance) ->
                 Obj
                   [
                     ( "aids",
                       List
                         (List.map
                            (fun aid -> Int aid)
                            p.Privatize.Classify.p_aids) );
                     ( "members",
                       List
                         (List.map
                            (fun aid -> Str (Depgraph.Graph.site_text g aid))
                            p.Privatize.Classify.p_aids) );
                     ( "verdict",
                       Str
                         (Privatize.Classify.verdict_name
                            p.Privatize.Classify.p_verdict) );
                     ( "rule",
                       Str
                         (Privatize.Classify.rule_name
                            p.Privatize.Classify.p_rule) );
                     ( "trigger",
                       match p.Privatize.Classify.p_witness with
                       | Some w -> Str (Depgraph.Graph.site_text g w)
                       | None -> Null );
                     ( "evidence",
                       List
                         (List.map
                            (fun (e : Depgraph.Graph.edge) ->
                              Obj
                                [
                                  ("src", Int e.Depgraph.Graph.e_src);
                                  ("dst", Int e.Depgraph.Graph.e_dst);
                                  ( "kind",
                                    Str
                                      (Depgraph.Graph.dep_kind_name
                                         e.Depgraph.Graph.e_kind) );
                                  ("carried", Bool e.Depgraph.Graph.e_carried);
                                  ("cite", Str (Depgraph.Graph.cite_edge g e));
                                ])
                            p.Privatize.Classify.p_evidence) );
                   ])
               c.Privatize.Classify.provenance) );
      ]
  in
  let layout_json (lc : Expand.Plan.layout_choice) =
    Obj
      [
        ("object", Str lc.Expand.Plan.lc_object);
        ("kind", Str (if lc.Expand.Plan.lc_is_alloc then "alloc" else "var"));
        ("layout", Str (Expand.Plan.mode_name lc.Expand.Plan.lc_mode));
        ("interleavable", Bool lc.Expand.Plan.lc_interleavable);
        ( "copy_span_bytes",
          match lc.Expand.Plan.lc_copy_span with
          | Some b -> Int b
          | None -> Null );
        ("why", Str lc.Expand.Plan.lc_why);
      ]
  in
  Obj
    [
      ("schema", Str "dsexpand-explain/1");
      ("workload", Str file);
      ( "mode",
        Str (Expand.Plan.mode_name res.Expand.Transform.plan.Expand.Plan.mode)
      );
      ("loops", List (List.map loop_json analyses));
      ( "layout",
        List (List.map layout_json (Expand.Plan.layout res.Expand.Transform.plan))
      );
    ]

let print_explain ~format ~file (analyses : Privatize.Analyze.result list)
    (res : Expand.Transform.result) : unit =
  match format with
  | `Json -> print_endline (Telemetry.Json.to_string (explain_json ~file analyses res))
  | `Table ->
    List.iter
      (fun (a : Privatize.Analyze.result) ->
        let c = a.Privatize.Analyze.classification in
        Printf.printf "Explain: loop %d in %s (%s)\n"
          c.Privatize.Classify.graph.Depgraph.Graph.loop
          a.Privatize.Analyze.loop_fun.Minic.Ast.fname (kind_name c);
        print_string
          (Report.Tables.explain_table (Privatize.Classify.explain_rows c));
        print_newline ())
      analyses;
    Printf.printf "Explain: expansion layout (%s mode)\n"
      (Expand.Plan.mode_name res.Expand.Transform.plan.Expand.Plan.mode);
    print_string
      (Report.Tables.layout_table
         (Expand.Plan.layout_rows res.Expand.Transform.plan))

let write_heatmap ~threads ~file (analyses : Privatize.Analyze.result list)
    (res : Expand.Transform.result) (path : string) : unit =
  let threads = if threads > 1 then threads else 4 in
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  let pr =
    Parexec.Sim.run_parallel
      ~heatmap:(Harness.Bench_run.heat_classifier res)
      res.Expand.Transform.transformed specs ~threads
  in
  let h = match pr.Parexec.Sim.pr_heat with Some h -> h | None -> assert false in
  let json =
    Parexec.Heat.to_json
      ~extra:
        [
          ("workload", Telemetry.Json.Str file);
          ( "mode",
            Telemetry.Json.Str
              (Expand.Plan.mode_name res.Expand.Transform.plan.Expand.Plan.mode)
          );
          ("threads", Telemetry.Json.Int threads);
        ]
      h
  in
  let oc = open_out_bin path in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "heatmap T=%d: %d lines attributed, %d false-sharing, %d copies -> %s\n"
    threads h.Parexec.Heat.total_lines h.Parexec.Heat.false_sharing_lines
    (List.length h.Parexec.Heat.copies)
    path

let load_source input workload =
  match (input, workload) with
  | Some path, None -> (Filename.basename path, read_file path)
  | None, Some name ->
    let w = Workloads.Registry.find name in
    (w.Workloads.Workload.name, w.Workloads.Workload.source)
  | _ ->
    prerr_endline "exactly one of --input or --workload is required";
    exit 2

(* Structured exit codes for supervised real-domain outcomes (the
   simulated paths keep their historical 0/1/2): *)
let exit_recovered = 3  (** output correct, but recovery was needed *)

let exit_fellback = 4  (** a lower ladder rung held (output correct) *)

let exit_aborted = 5  (** no trustworthy output *)

let outcome_word code =
  match code with
  | 0 -> "ok"
  | 3 -> "recovered"
  | 4 -> "fell-back"
  | _ -> "aborted"

(* Parse --fault for the supervised paths: only domain-level kinds are
   armed there; pipeline-level kinds mangle the analyses and belong to
   the ladder's simulated rungs. *)
let domain_fault_of ~seed fault_spec =
  match fault_spec with
  | None -> None
  | Some spec ->
    let f = parse_fault ~seed spec in
    if Faultinject.Fault.domain_level f then begin
      Printf.printf "fault %s: armed on the domain supervisor\n"
        (Faultinject.Fault.describe f);
      Some f
    end
    else None

(* Emit the --domain-trace / --sched-report artifacts and --trace's
   domain pseudo-processes from the ring recorder once the supervised
   run is over — including abort paths, where the failed attempts are
   the interesting part of the trace. *)
let emit_domtrace ~file ~domain_trace ~sched_report ~sched_format dtrace =
  match dtrace with
  | None -> ()
  | Some tr ->
    Option.iter
      (fun into -> ignore (Domexec.Domtrace.to_chrome ~into tr))
      !trace_collector;
    (match domain_trace with
    | Some path ->
      Telemetry.Chrome_trace.write (Domexec.Domtrace.to_chrome tr) path;
      Printf.printf "domain trace -> %s (%d attempt(s), %d events, %d drops)\n"
        path
        (Domexec.Domtrace.attempt_count tr)
        (Domexec.Domtrace.total_events tr)
        (Domexec.Domtrace.total_drops tr)
    | None -> ());
    if sched_report then begin
      let rep = Domexec.Domtrace.Sched_report.analyze tr in
      match sched_format with
      | `Json ->
        print_endline
          (Telemetry.Json.to_string
             (Domexec.Domtrace.Sched_report.to_json
                ~extra:[ ("workload", Telemetry.Json.Str file) ]
                rep))
      | `Table -> print_string (Domexec.Domtrace.Sched_report.to_table rep)
    end

(* Emit the --critical-path artifact from the same recorder: the file
   always gets the JSON profile (deterministic base object; --whatif
   appends the measured and what-if sections), stdout gets the
   --critpath-format rendering. *)
let emit_critpath ~file ~critical_path ~whatif ~critpath_format ~seq_ns
    ~seq_cycles dtrace =
  match (critical_path, dtrace) with
  | None, _ | _, None -> ()
  | Some path, Some tr ->
    let p = Domexec.Critpath.analyze tr in
    let json =
      Domexec.Critpath.to_json ~seq_ns ~seq_cycles ~whatif
        ~extra:[ ("workload", Telemetry.Json.Str file) ]
        p
    in
    let oc = open_out_bin path in
    output_string oc (Telemetry.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "critical path -> %s (%d attempt(s), %d domains%s)\n" path
      (Domexec.Critpath.attempts p)
      (Domexec.Critpath.domains p)
      (if whatif then ", with what-if" else "");
    (match critpath_format with
    | `Json -> print_endline (Telemetry.Json.to_string json)
    | `Table ->
      print_string (Domexec.Critpath.to_table ~seq_ns ~seq_cycles ~whatif p))

let run_ladder ~threads ~seed ~exec_mode ~domains ~chunk ~retry ~watchdog_ms
    ~file ~dtrace ~domain_trace ~sched_report ~sched_format prog analyses
    fault_spec =
  let threads = if threads > 1 then threads else 2 in
  let oracle = Guard.Contract.oracle_of prog analyses in
  let dom_fault =
    if exec_mode = `Domains then domain_fault_of ~seed fault_spec else None
  in
  let analyses', span_shrink, attach_extra =
    match fault_spec with
    | None -> (analyses, None, None)
    | Some _ when dom_fault <> None -> (analyses, None, None)
    | Some spec ->
      let f = parse_fault ~seed spec in
      let app = Faultinject.Fault.mangle f prog analyses in
      Printf.printf "fault %s: %s\n"
        (Faultinject.Fault.describe f)
        app.Faultinject.Fault.note;
      ( app.Faultinject.Fault.analyses,
        Faultinject.Fault.span_shrink f,
        Some (Faultinject.Fault.attach_machine f) )
  in
  let force = domains <> None in
  let o =
    Harness.Ladder.run ~threads ~reference:analyses ~oracle ?span_shrink
      ?attach_extra ~exec:exec_mode ?domains ?chunk ~force ~retry ~watchdog_ms
      ?fault:dom_fault ?trace:dtrace prog analyses'
  in
  emit_domtrace ~file ~domain_trace ~sched_report ~sched_format dtrace;
  List.iter
    (fun d -> print_endline (Harness.Ladder.diagnostic_to_string d))
    o.Harness.Ladder.diagnostics;
  (match o.Harness.Ladder.dom_sup with
  | Some sup ->
    Printf.printf "supervisor: %s\n" (Domexec.Supervisor.summary sup)
  | None -> ());
  let ok =
    String.equal o.Harness.Ladder.output oracle.Guard.Contract.o_output
    && o.Harness.Ladder.exit_code = oracle.Guard.Contract.o_exit
  in
  Printf.printf "rung held: %s (fell %d), output %s\n"
    (Harness.Ladder.rung_name o.Harness.Ladder.rung)
    (List.length o.Harness.Ladder.diagnostics)
    (if ok then "identical" else "DIFFERS");
  (* structured rung + trigger line for drivers, on stderr *)
  Printf.eprintf "dsexpand: rung=%s trigger=%s\n"
    (Harness.Ladder.rung_name o.Harness.Ladder.rung)
    (match o.Harness.Ladder.diagnostics with
    | [] -> "none"
    | d :: _ -> Harness.Ladder.trigger_to_string d.Harness.Ladder.trigger);
  if exec_mode = `Domains then begin
    let code =
      if not ok then exit_aborted
      else
        match (o.Harness.Ladder.rung, o.Harness.Ladder.dom_sup) with
        | Harness.Ladder.Domains, Some sup ->
          if sup.Domexec.Supervisor.sup_outcome = Domexec.Supervisor.Completed
          then 0
          else exit_recovered
        | Harness.Ladder.Domains, None -> 0
        | _ -> exit_fellback
    in
    Printf.eprintf "dsexpand: outcome=%s\n" (outcome_word code);
    exit code
  end
  else if not ok then exit 1

(** Real parallel execution of the expanded program on OCaml domains,
    under supervision (crash isolation, chunk retry, watchdog). Every
    run is validated: output and exit code against the original, final
    global state via the privatization contract. *)
let run_domains ~domains ~chunk ~retry ~watchdog_ms ~seed ~fault_spec ~file
    ~dtrace ~domain_trace ~sched_report ~sched_format ~critical_path ~whatif
    ~critpath_format prog (res : Expand.Transform.result)
    (lids : Minic.Ast.lid list) : unit =
  let plan = res.Expand.Transform.plan in
  let oracle = Guard.Contract.oracle_of prog [] in
  let m0 = Interp.Machine.load prog in
  let t0 = Unix.gettimeofday () in
  ignore (Interp.Machine.run m0);
  let seq_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let seq_cycles = m0.Interp.Machine.st.Interp.Machine.cycles in
  (* An explicit --domains N is a request for the parallel scheduler
     even when the host reports one core. *)
  let force = domains <> None in
  let fault = domain_fault_of ~seed fault_spec in
  let sup =
    Domexec.Supervisor.run ?domains ?chunk ~force ~retry ~watchdog_ms ?fault
      ?trace:dtrace res.Expand.Transform.transformed plan lids
  in
  emit_domtrace ~file ~domain_trace ~sched_report ~sched_format dtrace;
  emit_critpath ~file ~critical_path ~whatif ~critpath_format ~seq_ns
    ~seq_cycles dtrace;
  let finish code =
    Printf.eprintf "dsexpand: exec=domains outcome=%s\n" (outcome_word code);
    if code <> 0 then exit code
  in
  match sup.Domexec.Supervisor.sup_result with
  | None ->
    List.iter
      (fun e -> prerr_endline (Guard.Diag.sup_event_to_string e))
      sup.Domexec.Supervisor.sup_events;
    Printf.printf "supervisor: %s\n" (Domexec.Supervisor.summary sup);
    finish exit_aborted
  | Some r ->
    Printf.printf "exec domains: %s, requested %d, used %d%s\n" file
      r.Domexec.Exec.dx_requested r.Domexec.Exec.dx_domains
      (match r.Domexec.Exec.dx_fallback with
      | Some why -> Printf.sprintf " (sequential fallback: %s)" why
      | None -> "");
    List.iter
      (fun (lr : Domexec.Exec.loop_report) ->
        Printf.printf "  loop %d: %s (%d invocation%s, %d iterations)\n"
          lr.Domexec.Exec.lr_lid
          (Domexec.Exec.decision_to_string lr.Domexec.Exec.lr_decision)
          lr.Domexec.Exec.lr_invocations
          (if lr.Domexec.Exec.lr_invocations = 1 then "" else "s")
          lr.Domexec.Exec.lr_iterations)
      r.Domexec.Exec.dx_loops;
    Printf.printf "  steals %d (lost %d), chunks [%s], merges %d\n"
      r.Domexec.Exec.dx_steals r.Domexec.Exec.dx_steal_lost
      (String.concat " "
         (Array.to_list (Array.map string_of_int r.Domexec.Exec.dx_chunks_run)))
      r.Domexec.Exec.dx_merges;
    Printf.printf "  supervisor: %s\n" (Domexec.Supervisor.summary sup);
    Printf.printf
      "  wall: sequential %.1f ms, domains %.1f ms, speedup %.2fx\n" (seq_ns /. 1e6)
      (r.Domexec.Exec.dx_wall_ns /. 1e6)
      (seq_ns /. r.Domexec.Exec.dx_wall_ns);
    let ok_out = String.equal r.Domexec.Exec.dx_output oracle.Guard.Contract.o_output in
    let ok_exit = r.Domexec.Exec.dx_exit = oracle.Guard.Contract.o_exit in
    (match Guard.Contract.check_finals oracle plan r.Domexec.Exec.dx_machine with
    | () ->
      Printf.printf "  output %s, exit %s, finals identical\n"
        (if ok_out then "identical" else "DIFFERS")
        (if ok_exit then "identical" else "DIFFERS")
    | exception Guard.Violation.Violation v ->
      Printf.printf "contract tripped: %s\n" (Guard.Violation.to_string v);
      finish exit_aborted);
    if not (ok_out && ok_exit) then finish exit_aborted;
    finish
      (if sup.Domexec.Supervisor.sup_outcome = Domexec.Supervisor.Completed
       then 0
       else exit_recovered)

let run input workload dump_deps report check threads no_opt unselective
    guard ladder fault seed campaign campaign_json trace metrics
    metrics_format explain explain_format heatmap exec_mode domains chunk
    retry watchdog_ms domain_trace sched_report sched_format critical_path
    whatif critpath_format =
  setup_telemetry ~trace ~metrics ~metrics_format;
  (* The ring recorder behind --domain-trace / --sched-report /
     --critical-path and --trace's domain pseudo-processes; absent
     (zero-cost in the executor) unless one of them asked for it. *)
  let dtrace =
    if
      exec_mode = `Domains
      && (domain_trace <> None || sched_report || critical_path <> None
         || trace <> None)
    then Some (Domexec.Domtrace.create ())
    else None
  in
  if campaign then begin
    let entries =
      Harness.Campaign.run
        ~threads:(if threads > 1 then threads else 2)
        ~exec:exec_mode ?domains ?chunk
        ~force:(domains <> None)
        ~retry ~watchdog_ms
        ?workloads:
          (Option.map (fun w -> [ Workloads.Registry.find w ]) workload)
        ()
    in
    print_string (Harness.Campaign.table entries);
    (match campaign_json with
    | Some path ->
      let oc = open_out_bin path in
      output_string oc
        (Telemetry.Json.to_string (Harness.Campaign.to_json entries));
      output_char oc '\n';
      close_out oc;
      Printf.printf "campaign JSON -> %s\n" path
    | None -> ());
    if not (List.for_all Harness.Campaign.entry_safe entries) then exit 1
  end
  else begin
  let file, src = load_source input workload in
  let prog =
    try
      Telemetry.Span.wall "phase.parse" (fun () ->
          Minic.Typecheck.parse_and_check ~file src)
    with Minic.Loc.Error (loc, msg) ->
      (* malformed input is a usage error, reported at its location *)
      Printf.eprintf "%s: %s\n" (Minic.Loc.to_string loc) msg;
      exit 2
  in
  let lids = prog.Minic.Ast.parallel_loops in
  if lids = [] then begin
    prerr_endline "no #pragma parallel loop found";
    exit 1
  end;
  let analyses = List.map (Privatize.Analyze.analyze prog) lids in
  if ladder then
    run_ladder ~threads ~seed ~exec_mode ~domains ~chunk ~retry ~watchdog_ms
      ~file ~dtrace ~domain_trace ~sched_report ~sched_format prog analyses
      fault
  else if dump_deps then
    List.iter
      (fun (a : Privatize.Analyze.result) ->
        print_string
          (Depgraph.Graph.to_string
             a.Privatize.Analyze.profile.Depgraph.Profiler.graph))
      analyses
  else if report then
    List.iter
      (fun (a : Privatize.Analyze.result) ->
        let c = a.Privatize.Analyze.classification in
        let g = c.Privatize.Classify.graph in
        Printf.printf "loop %d in %s: %s\n" g.Depgraph.Graph.loop
          a.Privatize.Analyze.loop_fun.Minic.Ast.fname
          (match Privatize.Classify.parallelism_kind c with
          | `Doall -> "DOALL"
          | `Doacross -> "DOACROSS");
        Printf.printf "  induction variables: %s\n"
          (String.concat ", " a.Privatize.Analyze.induction_vars);
        List.iter
          (fun (cls, v, reason) ->
            let texts =
              List.filter_map
                (fun aid ->
                  Option.map
                    (fun (s : Depgraph.Graph.site) ->
                      Printf.sprintf "%s%s"
                        (match s.Depgraph.Graph.s_kind with
                        | Minic.Visit.Load -> ""
                        | Minic.Visit.Store -> "=")
                        s.Depgraph.Graph.s_text)
                    (Depgraph.Graph.site g aid))
                cls
            in
            Printf.printf "  class [%s] -> %s (%s)\n"
              (String.concat "; " texts)
              (Privatize.Classify.show_verdict v)
              (Privatize.Classify.show_reason reason))
          c.Privatize.Classify.classes;
        let ordered = Privatize.Classify.ordered_channels c in
        if ordered <> [] then begin
          Printf.printf "  ordered channels:\n";
          List.iter
            (fun (aid, chan, w) ->
              match Depgraph.Graph.site g aid with
              | Some s ->
                Printf.printf "    chan %d: %s%s\n" chan
                  (if w then "store " else "load ")
                  s.Depgraph.Graph.s_text
              | None -> ())
            ordered
        end)
      analyses
  else begin
    let res =
      Expand.Transform.expand_loops ~selective:(not unselective)
        ~optimize:(not no_opt) prog analyses
    in
    if explain then print_explain ~format:explain_format ~file analyses res;
    Option.iter (write_heatmap ~threads ~file analyses res) heatmap;
    if exec_mode = `Domains then
      run_domains ~domains ~chunk ~retry ~watchdog_ms ~seed ~fault_spec:fault
        ~file ~dtrace ~domain_trace ~sched_report ~sched_format ~critical_path
        ~whatif ~critpath_format prog res lids
    else if check then begin
      let code0, out0 = Interp.Machine.run_program prog in
      let m = Interp.Machine.load res.Expand.Transform.transformed in
      Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads"
        (max threads 1);
      let code1 = Interp.Machine.run m in
      let out1 = Interp.Machine.output m.Interp.Machine.st in
      Printf.printf "privatized structures: %d\n"
        res.Expand.Transform.privatized;
      Printf.printf "sequential: exit %d/%d, output %s\n" code0 code1
        (if String.equal out0 out1 then "identical" else "DIFFERS");
      let same = ref (String.equal out0 out1 && code0 = code1) in
      if threads > 1 then begin
        let specs = List.map Parexec.Sim.spec_of_analysis analyses in
        let seq = Parexec.Sim.run_sequential prog lids in
        let attach =
          if guard then begin
            let oracle = Guard.Contract.oracle_of prog analyses in
            let plan = res.Expand.Transform.plan in
            fun m ->
              ignore (Guard.Span_guard.attach plan m);
              ignore (Guard.Contract.attach oracle plan m)
          end
          else fun _ -> ()
        in
        let pr =
          match
            Parexec.Sim.run_parallel ~attach res.Expand.Transform.transformed
              specs ~threads
          with
          | exception Guard.Violation.Violation v ->
            Printf.printf "guard tripped: %s\n" (Guard.Violation.to_string v);
            exit 1
          | pr -> pr
        in
        let ok = String.equal pr.Parexec.Sim.pr_output out0 in
        same := !same && ok && pr.Parexec.Sim.pr_exit = code0;
        let lsum l = List.fold_left (fun a (_, c) -> a + c) 0 l in
        let loop_speedup =
          float_of_int (lsum seq.Parexec.Sim.sq_loop)
          /. float_of_int (lsum pr.Parexec.Sim.pr_loop)
        and total_speedup =
          float_of_int seq.Parexec.Sim.sq_total
          /. float_of_int pr.Parexec.Sim.pr_total
        in
        metrics_row_stash :=
          Some
            {
              Report.Tables.m_workload = file;
              m_threads = threads;
              m_loop_speedup = loop_speedup;
              m_total_speedup = total_speedup;
              m_breakdown = Harness.Bench_run.breakdown_of ~seq ~par:pr;
            };
        Printf.printf
          "parallel T=%d: output %s, loop speedup %.2fx, total %.2fx\n"
          threads
          (if ok then "identical" else "DIFFERS")
          loop_speedup total_speedup;
        if pr.Parexec.Sim.pr_exit <> code0 then
          Printf.printf "parallel T=%d: exit %d, original %d\n" threads
            pr.Parexec.Sim.pr_exit code0
      end;
      if not !same then exit 1
    end
    else if not explain && heatmap = None then
      print_string
        (Minic.Pretty.program_to_string res.Expand.Transform.transformed)
  end
  end

let cmd =
  let doc = "general data structure expansion for multi-threading" in
  Cmd.v
    (Cmd.info "dsexpand" ~doc)
    Term.(
      const run $ input_arg $ workload_arg $ dump_deps_arg $ report_arg
      $ check_arg $ threads_arg $ no_opt_arg $ unselective_arg $ guard_arg
      $ ladder_arg $ fault_arg $ seed_arg $ campaign_arg $ campaign_json_arg
      $ trace_arg $ metrics_arg $ metrics_format_arg $ explain_arg
      $ explain_format_arg $ heatmap_arg $ exec_arg $ domains_arg $ chunk_arg
      $ retry_arg $ watchdog_ms_arg $ domain_trace_arg $ sched_report_arg
      $ sched_format_arg $ critical_path_arg $ whatif_arg
      $ critpath_format_arg)

let () = exit (Cmd.eval cmd)
