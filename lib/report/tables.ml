(** ASCII table / series rendering and the summary statistics the
    paper reports (harmonic means over benchmarks). *)

let harmonic_mean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
    let n = float_of_int (List.length xs) in
    n /. List.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 xs

(** Render rows as a fixed-width table with a header. *)
let render ~(header : string list) (rows : string list list) : string =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line header :: sep :: List.map line rows) ^ "\n"

let fx f = Printf.sprintf "%.2f" f
let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)

(** Where a parallel run's cycles went, aggregated over threads. The
    single row type every report shares — Figure 12, the metrics
    table, and the experiments binary's cost attribution all render
    from it instead of carrying ad-hoc tuples. *)
type cycles_breakdown = {
  cb_compute : int;  (** useful work also present in the sequential run *)
  cb_cache : int;  (** cache-penalty stall cycles (L1/LLC misses) *)
  cb_sync : int;  (** DOACROSS post/wait stall cycles *)
  cb_priv : int;  (** privatization overhead: extra work vs sequential *)
  cb_idle : int;  (** barrier / load-imbalance idle cycles *)
  cb_runtime : int;  (** GOMP fork/dispatch/barrier cycles *)
}

let breakdown_total cb =
  cb.cb_compute + cb.cb_cache + cb.cb_sync + cb.cb_priv + cb.cb_idle
  + cb.cb_runtime

let breakdown_header =
  [ "compute"; "cache stall"; "sync wait"; "privatization"; "idle"; "runtime" ]

(** Six percentage cells, in [breakdown_header] order. *)
let breakdown_cells cb : string list =
  let total = max 1 (breakdown_total cb) in
  let p n = pct (float_of_int n /. float_of_int total) in
  [
    p cb.cb_compute; p cb.cb_cache; p cb.cb_sync; p cb.cb_priv; p cb.cb_idle;
    p cb.cb_runtime;
  ]

(** One row of the [--metrics] report: a workload's speedups plus its
    cycle attribution at a given thread count. *)
type metrics_row = {
  m_workload : string;
  m_threads : int;
  m_loop_speedup : float;
  m_total_speedup : float;
  m_breakdown : cycles_breakdown;
}

let metrics_table (rows : metrics_row list) : string =
  let cells r =
    [
      r.m_workload;
      string_of_int r.m_threads;
      fx r.m_loop_speedup;
      fx r.m_total_speedup;
    ]
    @ breakdown_cells r.m_breakdown
  in
  let summary =
    if List.length rows < 2 then []
    else
      [
        [
          "harmonic mean";
          "";
          fx (harmonic_mean (List.map (fun r -> r.m_loop_speedup) rows));
          fx (harmonic_mean (List.map (fun r -> r.m_total_speedup) rows));
        ]
        @ List.map (fun _ -> "") breakdown_header;
      ]
  in
  render
    ~header:
      ([ "workload"; "threads"; "loop speedup"; "total speedup" ]
      @ breakdown_header)
    (List.map cells rows @ summary)

(** Classification provenance (--explain): one row per access class,
    from [Privatize.Classify.explain_rows]. *)
let explain_table (rows : string list list) : string =
  render
    ~header:[ "access class"; "verdict"; "rule fired"; "trigger"; "evidence" ]
    rows

(** Layout provenance (--explain): one row per object of the expansion
    set, from [Expand.Plan.layout_rows]. *)
let layout_table (rows : string list list) : string =
  render
    ~header:[ "object"; "kind"; "layout"; "interleavable"; "copy span"; "why" ]
    rows

(** Heatmap summary (--heatmap / experiments heatmap): one row per
    (workload, mode) simulation. *)
let heat_summary_table (rows : string list list) : string =
  render
    ~header:
      [
        "workload";
        "mode";
        "threads";
        "lines";
        "false sharing";
        "copies";
        "mean util";
      ]
    rows

(** Render an aggregator's counters as a two-column table. *)
let counters_table (counters : (string * int) list) : string =
  render ~header:[ "counter"; "value" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) counters)

(** One row of the degradation-ladder / fault-campaign report. *)
type ladder_row = {
  lr_workload : string;
  lr_fault : string;  (** "-" for the clean configuration *)
  lr_rung : string;  (** rung that finally held *)
  lr_fell : int;  (** rungs fallen before it held *)
  lr_output_ok : bool;  (** bit-identical to the sequential oracle *)
  lr_detail : string;  (** first diagnostic, "" when none *)
}

(** Render ladder outcomes (the robustness counterpart of the paper's
    performance tables): one row per (workload, fault) configuration. *)
let ladder_table (rows : ladder_row list) : string =
  render
    ~header:[ "workload"; "fault"; "rung held"; "fell"; "output"; "diagnostic" ]
    (List.map
       (fun r ->
         [
           r.lr_workload;
           r.lr_fault;
           r.lr_rung;
           string_of_int r.lr_fell;
           (if r.lr_output_ok then "ok" else "MISMATCH");
           r.lr_detail;
         ])
       rows)

(** One row of the critical-path report: a workload's schedule at a
    domain count, its model-vs-measured speedup gap and the dominant
    wall-clock segment the profiler blames for it. *)
type critpath_row = {
  cp_workload : string;
  cp_domains : int;
  cp_model_speedup : float;  (** cycle-model speedup of the schedule *)
  cp_measured_speedup : float;  (** seq wall / critical-path length *)
  cp_dominant : string;  (** dominant on-path class *)
  cp_dominant_share : float;  (** its share of the critical path *)
  cp_exec_inflation : float;
      (** parallel exec ns/cycle over sequential ns/cycle *)
}

let critpath_table (rows : critpath_row list) : string =
  render
    ~header:
      [
        "workload"; "domains"; "model"; "measured"; "dominant"; "share";
        "inflation";
      ]
    (List.map
       (fun r ->
         [
           r.cp_workload;
           string_of_int r.cp_domains;
           fx r.cp_model_speedup ^ "x";
           fx r.cp_measured_speedup ^ "x";
           r.cp_dominant;
           pct r.cp_dominant_share;
           fx r.cp_exec_inflation ^ "x";
         ])
       rows)
