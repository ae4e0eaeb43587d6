(** ASCII table / series rendering and the summary statistics the
    paper reports (harmonic means over benchmarks). *)

val harmonic_mean : float list -> float

(** Render rows as a fixed-width table under a header: first column
    left-aligned, the rest right-aligned. *)
val render : header:string list -> string list list -> string

(** ["1.93"]-style fixed-point rendering. *)
val fx : float -> string

(** [pct 0.427] is ["42.7%"]. *)
val pct : float -> string

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

val breakdown_total : cycles_breakdown -> int

(** Column titles matching {!breakdown_cells}. *)
val breakdown_header : string list

(** Six percentage cells, in [breakdown_header] order. *)
val breakdown_cells : cycles_breakdown -> string list

(** One row of the [--metrics] report: a workload's speedups plus its
    cycle attribution at a given thread count. *)
type metrics_row = {
  m_workload : string;
  m_threads : int;
  m_loop_speedup : float;
  m_total_speedup : float;
  m_breakdown : cycles_breakdown;
}

(** Render metrics rows; appends a harmonic-mean summary row over the
    speedup columns when there are at least two rows. *)
val metrics_table : metrics_row list -> string

(** Classification provenance (--explain): one row per access class,
    from [Privatize.Classify.explain_rows]. *)
val explain_table : string list list -> string

(** Layout provenance (--explain): one row per object of the expansion
    set, from [Expand.Plan.layout_rows]. *)
val layout_table : string list list -> string

(** Heatmap summary: one row per (workload, mode) simulation —
    workload, mode, threads, lines, false-sharing lines, copies, mean
    utilization. *)
val heat_summary_table : string list list -> string

(** Render an aggregator's counters as a two-column table. *)
val counters_table : (string * int) list -> string

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
val ladder_table : ladder_row list -> string

(** One row of the critical-path report ([experiments critpath] and
    the bench summary): the model-vs-measured speedup gap of one
    (workload, domain count) schedule and the dominant wall-clock
    segment the profiler blames for it. *)
type critpath_row = {
  cp_workload : string;
  cp_domains : int;
  cp_model_speedup : float;  (** cycle-model speedup of the schedule *)
  cp_measured_speedup : float;  (** seq wall / critical-path length *)
  cp_dominant : string;  (** dominant on-path class *)
  cp_dominant_share : float;  (** its share of the critical path *)
  cp_exec_inflation : float;
      (** parallel exec ns/cycle over sequential ns/cycle; > 1 means
          the same interpreted work ran slower per cycle in parallel *)
}

val critpath_table : critpath_row list -> string
