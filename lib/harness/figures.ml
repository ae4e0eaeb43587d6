(** Renderers for every table and figure of the paper's evaluation.
    Each takes the loaded benchmarks and returns the text the
    experiments binary prints (and EXPERIMENTS.md embeds). *)

open Report

let name (b : Bench_run.t) = b.Bench_run.workload.Workloads.Workload.name

let threads_list = 1 :: Bench_run.thread_counts

(* ------------------------------------------------------------------ *)

let table4 (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        let w = b.Bench_run.workload in
        let kinds =
          List.map
            (fun (s : Parexec.Sim.loop_spec) ->
              match s.Parexec.Sim.schedule with
              | Parexec.Sim.Doall -> "DOALL"
              | Parexec.Sim.Doacross -> "DOACROSS")
            b.Bench_run.specs
          |> List.sort_uniq compare |> String.concat "+"
        in
        let seq = Bench_run.seq b in
        let pct =
          float_of_int (Bench_run.loop_cycles_seq b)
          /. float_of_int seq.Parexec.Sim.sq_total
        in
        [
          name b;
          w.Workloads.Workload.suite;
          string_of_int (Workloads.Workload.loc_count w);
          String.concat "," w.Workloads.Workload.loop_functions;
          String.concat ","
            (List.map string_of_int w.Workloads.Workload.nest_levels);
          kinds;
          Tables.pct pct;
        ])
      benches
  in
  "Table 4: benchmark characteristics (parallelism detected by the \
   classifier; %time measured)\n"
  ^ Tables.render
      ~header:
        [ "benchmark"; "suite"; "#LOC"; "function"; "level"; "parallelism"; "%time" ]
      rows

let table5 (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        [
          name b;
          string_of_int b.Bench_run.expanded.Expand.Transform.privatized;
          string_of_int b.Bench_run.workload.Workloads.Workload.paper_privatized;
        ])
      benches
  in
  "Table 5: dynamic data structures privatized\n"
  ^ Tables.render ~header:[ "benchmark"; "privatized"; "paper" ] rows

let fig8 (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        let breakdowns =
          List.map
            (fun (a : Privatize.Analyze.result) ->
              Privatize.Classify.breakdown
                a.Privatize.Analyze.classification)
            b.Bench_run.analyses
        in
        let free =
          List.fold_left
            (fun acc (x : Privatize.Classify.breakdown) ->
              acc + x.Privatize.Classify.free_of_carried)
            0 breakdowns
        and expd =
          List.fold_left
            (fun acc (x : Privatize.Classify.breakdown) ->
              acc + x.Privatize.Classify.expandable)
            0 breakdowns
        and carried =
          List.fold_left
            (fun acc (x : Privatize.Classify.breakdown) ->
              acc + x.Privatize.Classify.with_carried)
            0 breakdowns
        in
        let total = max 1 (free + expd + carried) in
        let p n = Tables.pct (float_of_int n /. float_of_int total) in
        [ name b; p free; p expd; p carried ])
      benches
  in
  "Figure 8: breakdown of the loops' dynamic memory accesses\n"
  ^ Tables.render
      ~header:
        [ "benchmark"; "free of carried dep"; "expandable"; "with carried dep" ]
      rows

let fig9 (benches : Bench_run.t list) ~(optimized : bool) : string =
  let slowdowns =
    List.map (fun b -> Bench_run.seq_slowdown b ~optimized) benches
  in
  let rows =
    List.map2 (fun b s -> [ name b; Tables.fx s ]) benches slowdowns
  in
  Printf.sprintf
    "Figure 9%s: sequential slowdown of expansion %s optimizations\n"
    (if optimized then "b" else "a")
    (if optimized then "WITH" else "WITHOUT")
  ^ Tables.render ~header:[ "benchmark"; "slowdown (x)" ] rows
  ^ Printf.sprintf "harmonic mean: %sx\n"
      (Tables.fx (Tables.harmonic_mean slowdowns))

let fig10 (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        [
          name b;
          Tables.fx (Bench_run.seq_slowdown b ~optimized:true);
          Tables.fx (Bench_run.rp_seq_slowdown b);
        ])
      benches
  in
  "Figure 10: sequential overhead, static expansion vs runtime \
   privatization\n"
  ^ Tables.render
      ~header:[ "benchmark"; "expansion (x)"; "runtime priv (x)" ]
      rows

let speedup_table title f (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        name b
        :: List.map (fun t -> Tables.fx (f b ~threads:t)) threads_list)
      benches
  in
  title ^ "\n"
  ^ Tables.render
      ~header:
        ("benchmark"
        :: List.map (fun t -> Printf.sprintf "%d core%s" t (if t > 1 then "s" else ""))
             threads_list)
      rows

let fig11 (benches : Bench_run.t list) : string =
  let loops =
    speedup_table "Figure 11a: loop speedup"
      (fun b ~threads -> Bench_run.loop_speedup b ~threads)
      benches
  in
  let totals =
    speedup_table "Figure 11b: total speedup"
      (fun b ~threads -> Bench_run.total_speedup b ~threads)
      benches
  in
  let hm t =
    Tables.harmonic_mean
      (List.map (fun b -> Bench_run.total_speedup b ~threads:t) benches)
  in
  loops ^ "\n" ^ totals
  ^ Printf.sprintf
      "harmonic mean of total speedups: %s @4 cores, %s @8 cores (paper: \
       1.93, 2.24)\n"
      (Tables.fx (hm 4))
      (Tables.fx (hm 8))

let fig12 (benches : Bench_run.t list) ~(threads : int) : string =
  let rows =
    List.map
      (fun b ->
        name b :: Tables.breakdown_cells (Bench_run.cost_breakdown b ~threads))
      benches
  in
  Printf.sprintf
    "Figure 12: cycle breakdown of the %d-core run (aggregated over threads)\n"
    threads
  ^ Tables.render ~header:("benchmark" :: Tables.breakdown_header) rows

(** The [--metrics] table over all benchmarks: speedups plus cycle
    attribution at one thread count. *)
let metrics (benches : Bench_run.t list) ~(threads : int) : string =
  Printf.sprintf "Metrics: per-workload cost attribution at %d threads\n"
    threads
  ^ Tables.metrics_table
      (List.map (fun b -> Bench_run.metrics_row b ~threads) benches)

let fig13 (benches : Bench_run.t list) : string =
  speedup_table "Figure 13: loop speedup under runtime privatization"
    (fun b ~threads -> Bench_run.loop_speedup ~rp:true b ~threads)
    benches

let fig14 (benches : Bench_run.t list) : string =
  let rows =
    List.map
      (fun b ->
        [
          name b;
          Tables.fx (Bench_run.memory_multiple b ~threads:4);
          Tables.fx (Bench_run.memory_multiple b ~threads:8);
          Tables.fx (Bench_run.rp_memory_multiple b ~threads:4);
          Tables.fx (Bench_run.rp_memory_multiple b ~threads:8);
        ])
      benches
  in
  "Figure 14: memory use as a multiple of the sequential original\n"
  ^ Tables.render
      ~header:
        [
          "benchmark"; "expansion @4"; "expansion @8"; "runtime priv @4";
          "runtime priv @8";
        ]
      rows

(** Mean per-copy span utilization of the private copies (copy 0 is
    the shared data, not an expanded copy). *)
let mean_util (h : Parexec.Heat.t) : string =
  match
    List.filter (fun c -> c.Parexec.Heat.hc_copy > 0) h.Parexec.Heat.copies
  with
  | [] -> "-"
  | cs ->
    Tables.fx
      (List.fold_left (fun a c -> a +. c.Parexec.Heat.hc_util) 0.0 cs
      /. float_of_int (List.length cs))

(** The bonded-vs-interleaved heatmap ablation (§3.1): per workload,
    the attributed lines, false-sharing lines and mean copy
    utilization of each layout at [threads]. Workloads the interleaved
    transformer rejects (recast structures, heap blocks) report "-". *)
let heatmap (benches : Bench_run.t list) ~(threads : int) : string =
  let rows =
    List.concat_map
      (fun b ->
        let row mode (h : Parexec.Heat.t) =
          [
            name b;
            mode;
            string_of_int threads;
            string_of_int h.Parexec.Heat.total_lines;
            string_of_int h.Parexec.Heat.false_sharing_lines;
            string_of_int (List.length h.Parexec.Heat.copies);
            mean_util h;
          ]
        in
        let bonded = row "bonded" (Bench_run.heat b ~threads) in
        let interleaved =
          match
            Expand.Transform.expand_loops ~mode:Expand.Plan.Interleaved
              b.Bench_run.prog b.Bench_run.analyses
          with
          | r -> row "interleaved" (Bench_run.heat_of b r ~threads)
          | exception Expand.Transform.Unsupported _ ->
            [ name b; "interleaved"; "-"; "-"; "-"; "-"; "-" ]
        in
        [ bonded; interleaved ])
      benches
  in
  "Heatmap: cache-line attribution, bonded vs interleaved layout\n"
  ^ Tables.heat_summary_table rows

(** Simulated vs real scaling: the simulator's total speedup (cycles)
    next to the domain executor's wall-clock speedup at the same
    counts. Real speedups depend on the host — the table records how
    many domains each run actually got, and a sequential fallback
    (1-core host) shows as used=1. *)
let domexec (benches : Bench_run.t list) : string =
  let rows =
    List.concat_map
      (fun b ->
        List.map
          (fun d ->
            let wr = Bench_run.wall b ~domains:d in
            let sim =
              if d = 1 then "1.00"
              else Tables.fx (Bench_run.total_speedup b ~threads:d)
            in
            [
              name b;
              string_of_int d;
              string_of_int wr.Bench_run.wr_used;
              sim;
              Tables.fx wr.Bench_run.wr_speedup;
              string_of_int wr.Bench_run.wr_steals;
              string_of_int wr.Bench_run.wr_distributed;
              (match wr.Bench_run.wr_fallback with
              | Some _ -> "fallback"
              | None -> "domains");
            ])
          Bench_run.domain_counts)
      benches
  in
  Printf.sprintf
    "Domexec: simulated (cycle) vs real (wall-clock) scaling, median of 3 \
     runs, host has %d core%s\n"
    (Domexec.Exec.available_domains ())
    (if Domexec.Exec.available_domains () > 1 then "s" else "")
  ^ Tables.render
      ~header:
        [
          "benchmark"; "domains"; "used"; "sim speedup"; "wall speedup";
          "steals"; "distributed"; "mode";
        ]
      rows

(** Scheduler-health summary from one traced run per domain count —
    the same {!Bench_run.sched} reports whose JSON lands in
    BENCH_results.json, rendered for a human. Utilization spread and
    the imbalance coefficient localize stragglers; drops > 0 means the
    ring capacity clipped the trace. *)
let domtrace (benches : Bench_run.t list) : string =
  let module SR = Domexec.Domtrace.Sched_report in
  let counts = List.filter (fun d -> d > 1 && d <= 4) Bench_run.domain_counts in
  let rows =
    List.concat_map
      (fun b ->
        List.map
          (fun d ->
            let r = Bench_run.sched b ~domains:d in
            let utils =
              Array.to_list (Array.map SR.utilization r.SR.sr_domains)
            in
            [
              name b;
              string_of_int d;
              string_of_int r.SR.sr_events;
              string_of_int r.SR.sr_drops;
              (match r.SR.sr_steal_success with
              | None -> "-"
              | Some s -> Tables.pct s);
              Tables.fx r.SR.sr_imbalance;
              (match r.SR.sr_straggler with
              | None -> "-"
              | Some dom -> "domain " ^ string_of_int dom);
              Tables.pct (List.fold_left Float.min 1. utils);
              Tables.pct (List.fold_left Float.max 0. utils);
              Tables.pct r.SR.sr_gc_share;
            ])
          counts)
      benches
  in
  "Domtrace: scheduler health from per-domain event rings (fault-free runs)\n"
  ^ Tables.render
      ~header:
        [
          "benchmark"; "domains"; "events"; "drops"; "steal succ";
          "imbalance"; "straggler"; "min util"; "max util"; "gc share";
        ]
      rows

(** Critical-path summary per (workload, domain count): how much of
    the cycle-model speedup the wall clock actually kept, which
    segment class dominates the measured critical path, and how much
    slower a parallel interpreter cycle ran than a sequential one.
    The full per-class and what-if detail is [dsexpand
    --critical-path]'s artifact; this table is the cross-workload
    digest. *)
let critpath (benches : Bench_run.t list) : string =
  let counts = List.filter (fun d -> d > 1 && d <= 4) Bench_run.domain_counts in
  let rows =
    List.concat_map
      (fun b ->
        let seq_cycles =
          (Lazy.force b.Bench_run.contract_oracle).Guard.Contract.o_cycles
        in
        let seq_ns = Bench_run.wall_seq b in
        List.map
          (fun d ->
            let p = Bench_run.critpath b ~domains:d in
            let dom_cls, dom_share = Domexec.Critpath.dominant p in
            let measured = Domexec.Critpath.measured_speedup p ~seq_ns in
            let model =
              Domexec.Critpath.model_speedup p ~seq_cycles
            in
            {
              Tables.cp_workload = name b;
              cp_domains = d;
              cp_model_speedup = model;
              cp_measured_speedup = measured;
              cp_dominant = dom_cls;
              cp_dominant_share = dom_share;
              cp_exec_inflation =
                (if measured > 0.0 then model /. measured else 0.0);
            })
          counts)
      benches
  in
  "Critpath: cycle-model vs measured critical path (traced runs)\n"
  ^ Tables.critpath_table rows

(* thunked so that selecting a subset only runs what it needs *)
let all (benches : Bench_run.t list) : (string * (unit -> string)) list =
  [
    ("table4", fun () -> table4 benches);
    ("table5", fun () -> table5 benches);
    ("fig8", fun () -> fig8 benches);
    ("fig9a", fun () -> fig9 benches ~optimized:false);
    ("fig9b", fun () -> fig9 benches ~optimized:true);
    ("fig10", fun () -> fig10 benches);
    ("fig11", fun () -> fig11 benches);
    ("fig12", fun () -> fig12 benches ~threads:8);
    ("fig13", fun () -> fig13 benches);
    ("fig14", fun () -> fig14 benches);
    ("metrics", fun () -> metrics benches ~threads:4);
    ("heatmap", fun () -> heatmap benches ~threads:4);
    ("domexec", fun () -> domexec benches);
    ("domtrace", fun () -> domtrace benches);
    ("critpath", fun () -> critpath benches);
  ]
