(** Per-benchmark experiment state: the analyses and transformed
    programs, plus lazily-computed, memoized measurement runs. Every
    table and figure of the paper draws from this record, so each
    expensive execution happens at most once per process. Every
    measured run is judged by {!Guard.Contract.verdict} against
    [contract_oracle]; a failed verdict raises
    {!Guard.Violation.Violation}. *)

open Minic

(** Single source of truth for how wide the evaluation fans out: the
    simulated executor and the real domain executor measure the same
    counts (bench tables, figures and CI gates all draw from here). *)
val thread_counts : int list

(** Domain counts for the simulated-vs-real scaling comparison. *)
val domain_counts : int list

type t = {
  workload : Workloads.Workload.t;
  prog : Ast.program;
  lids : Ast.lid list;
  analyses : Privatize.Analyze.result list;
  specs : Parexec.Sim.loop_spec list;
  expanded : Expand.Transform.result;  (** selective + optimized *)
  expanded_unopt : Expand.Transform.result Lazy.t;
      (** promote-all, no span optimization: Figure 9a's configuration *)
  rp : Parexec.Sim.runtime_priv Lazy.t;
  seq : Parexec.Sim.seq_result Lazy.t;
  mutable par_cache : (int * bool * bool, Parexec.Sim.par_result) Hashtbl.t;
  mutable seq_cycles_cache : (string, int * int) Hashtbl.t;
  contract_oracle : Guard.Contract.oracle Lazy.t;
  mutable wall_seq_cache : (int, float) Hashtbl.t;
  mutable wall_cache : (int * int, wall_result) Hashtbl.t;
  mutable trace_cache : (int, Domexec.Domtrace.t * float) Hashtbl.t;
}

(** A wall-clock measurement of the domain executor vs the sequential
    original (both medians of the same repeat count). *)
and wall_result = {
  wr_domains : int;  (** domains requested *)
  wr_used : int;  (** domains actually used (1 = sequential fallback) *)
  wr_seq_ns : float;
  wr_par_ns : float;
  wr_speedup : float;
  wr_steals : int;
  wr_distributed : int;  (** parallel loops the executor distributed *)
  wr_fallback : string option;
}

val load : Workloads.Workload.t -> t
val seq : t -> Parexec.Sim.seq_result

(** Access-class classifier for heatmap attribution: the plan's merged
    verdicts (which also cover generated span accesses) projected onto
    the simulator's class type. *)
val heat_classifier :
  Expand.Transform.result -> Ast.aid -> Parexec.Cache.attr_class

(** Simulated parallel run; [rp:true] charges the SpiceC-style
    runtime-privatization costs, [heatmap:true] opts into per-line
    attribution. *)
val par : ?rp:bool -> ?heatmap:bool -> t -> threads:int -> Parexec.Sim.par_result

(** Cache-line heatmap of the expanded program at [threads]. *)
val heat : t -> threads:int -> Parexec.Heat.t

(** Heatmap of an alternative transformation of the same workload (the
    bonded-vs-interleaved ablation), judged like every measured run. *)
val heat_of : t -> Expand.Transform.result -> threads:int -> Parexec.Heat.t

val loop_cycles_seq : t -> int
val loop_cycles_par : ?rp:bool -> t -> threads:int -> int
val loop_speedup : ?rp:bool -> t -> threads:int -> float
val total_speedup : ?rp:bool -> t -> threads:int -> float

(** Sequential slowdown of the expanded program (Figure 9). *)
val seq_slowdown : t -> optimized:bool -> float

(** Sequential slowdown under runtime privatization (Figure 10). *)
val rp_seq_slowdown : t -> float

(** Memory-use multiples over the sequential original (Figure 14). *)
val memory_multiple : t -> threads:int -> float

val rp_memory_multiple : t -> threads:int -> float

(** Attribute a parallel run's cycles, aggregated over threads
    (Figure 12 and the [--metrics] report). Pure: combines an
    already-measured pair of runs, so any caller holding the two
    results — the CLI, the experiments binary, a test — shares one
    formula. Busy cycles split into cache stalls, the compute also
    present in the sequential run, and — whatever busy work exceeds
    the sequential loop's — privatization overhead. *)
val breakdown_of :
  seq:Parexec.Sim.seq_result ->
  par:Parexec.Sim.par_result ->
  Report.Tables.cycles_breakdown

(** [breakdown_of] over this benchmark's memoized runs. *)
val cost_breakdown : t -> threads:int -> Report.Tables.cycles_breakdown

(** The benchmark's full [--metrics] row at [threads]. *)
val metrics_row : t -> threads:int -> Report.Tables.metrics_row

(** Median wall time (ns) of the sequential original over [repeats]
    fresh, untimed-load runs. *)
val wall_seq : ?repeats:int -> t -> float

(** Wall-clock run of the expanded program on [domains] real domains
    (median of [repeats], default 3). Every run is judged by the
    verdict. Memoized per (domains, repeats). *)
val wall : ?repeats:int -> t -> domains:int -> wall_result

(** One traced, judged domain run ([force]d, so single-core
    CI hosts still exercise the parallel scheduler): the recorder and
    the run's wall time. Kept separate from {!wall}'s samples so ring
    instrumentation never contaminates a timed measurement. Memoized
    per domain count; {!sched} and {!critpath} both derive from this
    single recording. *)
val traced : t -> domains:int -> Domexec.Domtrace.t * float

(** Scheduler-health report of the {!traced} run. *)
val sched : t -> domains:int -> Domexec.Domtrace.Sched_report.report

(** Critical-path profile of the {!traced} run. *)
val critpath : t -> domains:int -> Domexec.Critpath.profile
