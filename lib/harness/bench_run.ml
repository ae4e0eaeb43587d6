(** Per-benchmark experiment state: the analyses and transformed
    programs, plus lazily-computed, memoized measurement runs. Every
    table and figure of the paper draws from this record, so each
    expensive execution happens at most once per process, and every
    measured run is judged by {!Guard.Contract.verdict}. *)

open Minic

(** Single source of truth for how wide the evaluation fans out: the
    simulated executor and the real domain executor measure the same
    counts (bench tables, figures and CI gates all draw from here). *)
let thread_counts = [ 2; 4; 8 ]

(** Domain counts for the simulated-vs-real scaling comparison. *)
let domain_counts = [ 1; 2; 4; 8 ]

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
      (** (threads, with runtime-privatization surcharge, with heatmap
          attribution) -> result *)
  mutable seq_cycles_cache : (string, int * int) Hashtbl.t;
      (** tagged sequential runs of transformed programs:
          (cycles, peak bytes) *)
  contract_oracle : Guard.Contract.oracle Lazy.t;
      (** the original program's plain run (no access streams): the
          oracle every measured run is judged against, and the
          sequential interpreter cycle count *)
  mutable wall_seq_cache : (int, float) Hashtbl.t;
      (** repeats -> median wall ns of the original program *)
  mutable wall_cache : (int * int, wall_result) Hashtbl.t;
      (** (domains, repeats) -> wall-clock measurement *)
  mutable trace_cache : (int, Domexec.Domtrace.t * float) Hashtbl.t;
      (** domains -> (recorder, wall ns) of one traced run; the
          sched report and the critical-path profile both derive from
          this single recording *)
}

and wall_result = {
  wr_domains : int;  (** domains requested *)
  wr_used : int;  (** domains actually used (1 = sequential fallback) *)
  wr_seq_ns : float;  (** median wall time of the sequential original *)
  wr_par_ns : float;  (** median wall time on domains *)
  wr_speedup : float;
  wr_steals : int;
  wr_distributed : int;  (** parallel loops the executor distributed *)
  wr_fallback : string option;
}

let load (w : Workloads.Workload.t) : t =
  let prog =
    Telemetry.Span.wall "phase.parse" (fun () ->
        Typecheck.parse_and_check ~file:w.Workloads.Workload.name
          w.Workloads.Workload.source)
  in
  let lids = prog.Ast.parallel_loops in
  let analyses = List.map (Privatize.Analyze.analyze prog) lids in
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  let expanded = Expand.Transform.expand_loops prog analyses in
  {
    workload = w;
    prog;
    lids;
    analyses;
    specs;
    expanded;
    expanded_unopt =
      lazy (Expand.Transform.expand_loops ~selective:false ~optimize:false prog analyses);
    rp = lazy (Runtimepriv.Rp.config_of prog analyses);
    seq = lazy (Parexec.Sim.run_sequential prog lids);
    par_cache = Hashtbl.create 8;
    seq_cycles_cache = Hashtbl.create 4;
    contract_oracle = lazy (Guard.Contract.oracle_of prog []);
    wall_seq_cache = Hashtbl.create 4;
    wall_cache = Hashtbl.create 8;
    trace_cache = Hashtbl.create 4;
  }

let seq (b : t) = Lazy.force b.seq

(* Run a simulation with an [attach] hook that keeps its machine, and
   judge that machine by the verdict; the machine goes out of scope
   here, so no memoized result keeps its arena alive. *)
let judged (b : t) (plan : Expand.Plan.t) run exit_of =
  let machine = ref None in
  let r = run (fun m -> machine := Some m) in
  Guard.Contract.verdict (Lazy.force b.contract_oracle) ~plan ~exit:(exit_of r)
    (Option.get !machine);
  r

let pr_exit (r : Parexec.Sim.par_result) = r.Parexec.Sim.pr_exit

(* A domain run of the expanded program, judged by the verdict. *)
let judged_domains (b : t) (r : Domexec.Exec.result) : Domexec.Exec.result =
  Guard.Contract.verdict (Lazy.force b.contract_oracle)
    ~plan:b.expanded.Expand.Transform.plan ~exit:r.Domexec.Exec.dx_exit
    r.Domexec.Exec.dx_machine;
  r

(** Access-class classifier for heatmap attribution: the plan's merged
    verdicts (which also cover generated span accesses) projected onto
    the simulator's class type. *)
let heat_classifier (r : Expand.Transform.result) (aid : Ast.aid) :
    Parexec.Cache.attr_class =
  match Expand.Plan.verdict r.Expand.Transform.plan aid with
  | Privatize.Classify.Private -> Parexec.Cache.Private
  | Privatize.Classify.Shared -> Parexec.Cache.Shared
  | Privatize.Classify.Induction -> Parexec.Cache.Induction

(** Simulated parallel run of the expanded program. [heatmap] opts into
    per-line attribution (kept off the default path so the memoized
    runs behind every table stay byte-for-byte what they were). *)
let par ?(rp = false) ?(heatmap = false) (b : t) ~threads :
    Parexec.Sim.par_result =
  match Hashtbl.find_opt b.par_cache (threads, rp, heatmap) with
  | Some r -> r
  | None ->
    let r =
      judged b b.expanded.Expand.Transform.plan
        (fun attach ->
          Parexec.Sim.run_parallel ~attach
            ?rp:(if rp then Some (Lazy.force b.rp) else None)
            ?heatmap:
              (if heatmap then Some (heat_classifier b.expanded) else None)
            b.expanded.Expand.Transform.transformed b.specs ~threads)
        pr_exit
    in
    Hashtbl.replace b.par_cache (threads, rp, heatmap) r;
    r

(** Cache-line heatmap of the expanded program at [threads]. *)
let heat (b : t) ~threads : Parexec.Heat.t =
  match (par ~heatmap:true b ~threads).Parexec.Sim.pr_heat with
  | Some h -> h
  | None -> assert false

(** Heatmap of an alternative transformation of the same workload (the
    bonded-vs-interleaved ablation); the run is judged like every other
    measured run. *)
let heat_of (b : t) (r : Expand.Transform.result) ~threads : Parexec.Heat.t =
  let res =
    judged b r.Expand.Transform.plan
      (fun attach ->
        Parexec.Sim.run_parallel ~attach ~heatmap:(heat_classifier r)
          r.Expand.Transform.transformed b.specs ~threads)
      pr_exit
  in
  match res.Parexec.Sim.pr_heat with Some h -> h | None -> assert false

(** Sequential (1-thread, tid=0) run of a transformed program under the
    same cache model as the reference; gives Figure 9/10's overheads. *)
let seq_cycles_of (b : t) ~(tag : string) (res : Expand.Transform.result) :
    int * int =
  match Hashtbl.find_opt b.seq_cycles_cache tag with
  | Some r -> r
  | None ->
    let r =
      judged b res.Expand.Transform.plan
        (fun attach ->
          Parexec.Sim.run_sequential ~attach res.Expand.Transform.transformed
            b.lids)
        (fun r -> r.Parexec.Sim.sq_exit)
    in
    let v = (r.Parexec.Sim.sq_total, r.Parexec.Sim.sq_peak) in
    Hashtbl.replace b.seq_cycles_cache tag v;
    v

let loop_cycles_seq (b : t) : int =
  List.fold_left (fun a (_, c) -> a + c) 0 (seq b).Parexec.Sim.sq_loop

let loop_cycles_par ?(rp = false) (b : t) ~threads : int =
  List.fold_left (fun a (_, c) -> a + c) 0
    (par ~rp b ~threads).Parexec.Sim.pr_loop

let loop_speedup ?(rp = false) (b : t) ~threads : float =
  float_of_int (loop_cycles_seq b)
  /. float_of_int (loop_cycles_par ~rp b ~threads)

let total_speedup ?(rp = false) (b : t) ~threads : float =
  float_of_int (seq b).Parexec.Sim.sq_total
  /. float_of_int (par ~rp b ~threads).Parexec.Sim.pr_total

(** Sequential slowdown of the expanded program (Figure 9): >1 means
    the transformation costs time on one core. *)
let seq_slowdown (b : t) ~(optimized : bool) : float =
  let res, tag =
    if optimized then (b.expanded, "opt")
    else (Lazy.force b.expanded_unopt, "unopt")
  in
  let cycles, _ = seq_cycles_of b ~tag res in
  float_of_int cycles /. float_of_int (seq b).Parexec.Sim.sq_total

(** Sequential slowdown under runtime privatization (Figure 10's
    baseline side): the same correct program with the SpiceC-style
    access-control costs charged, on one thread. *)
let rp_seq_slowdown (b : t) : float =
  let r = par ~rp:true b ~threads:1 in
  float_of_int r.Parexec.Sim.pr_total /. float_of_int (seq b).Parexec.Sim.sq_total

(** Memory-use multiple over the sequential original (Figure 14). *)
let memory_multiple (b : t) ~threads : float =
  let pr = par b ~threads in
  float_of_int pr.Parexec.Sim.pr_peak
  /. float_of_int (seq b).Parexec.Sim.sq_peak

(** Attribute a parallel run's cycles, aggregated over threads
    (Figure 12 and the [--metrics] report). Busy cycles split into
    cache stalls, the compute also present in the sequential run, and
    — whatever busy work exceeds the sequential loop's — privatization
    overhead (redirection arithmetic, span shadows, extra copies). *)
let breakdown_of ~(seq : Parexec.Sim.seq_result)
    ~(par : Parexec.Sim.par_result) : Report.Tables.cycles_breakdown =
  let sum a = Array.fold_left ( + ) 0 a in
  let seq_compute =
    List.fold_left (fun a (_, c) -> a + c) 0 seq.Parexec.Sim.sq_loop
    - seq.Parexec.Sim.sq_cache_stall
  in
  let par_busy_compute =
    sum par.Parexec.Sim.pr_busy - par.Parexec.Sim.pr_cache_stall
  in
  let cb_priv = max 0 (par_busy_compute - seq_compute) in
  {
    Report.Tables.cb_compute = par_busy_compute - cb_priv;
    cb_cache = par.Parexec.Sim.pr_cache_stall;
    cb_sync = sum par.Parexec.Sim.pr_sync;
    cb_priv;
    cb_idle = sum par.Parexec.Sim.pr_idle;
    cb_runtime = par.Parexec.Sim.pr_overhead;
  }

let cost_breakdown (b : t) ~threads : Report.Tables.cycles_breakdown =
  breakdown_of ~seq:(seq b) ~par:(par b ~threads)

let metrics_row (b : t) ~threads : Report.Tables.metrics_row =
  {
    Report.Tables.m_workload = b.workload.Workloads.Workload.name;
    m_threads = threads;
    m_loop_speedup = loop_speedup b ~threads;
    m_total_speedup = total_speedup b ~threads;
    m_breakdown = cost_breakdown b ~threads;
  }

(** Runtime privatization's memory multiple: the original footprint
    plus one copy of the touched private bytes per extra thread. The
    touched set is measured on the single-thread run, where exactly
    one copy of each privatized structure exists. *)
let rp_memory_multiple (b : t) ~threads : float =
  let touched = (par ~rp:true b ~threads:1).Parexec.Sim.pr_rp_touched_bytes in
  let base = (seq b).Parexec.Sim.sq_peak in
  float_of_int (base + ((threads - 1) * touched)) /. float_of_int base

(* ------------------------------------------------------------------ *)
(* Wall-clock measurement on real domains                              *)
(* ------------------------------------------------------------------ *)

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(** Median wall time (ns) of the sequential original over [repeats]
    fresh runs. Loading is untimed, mirroring the domain executor's
    spawn-to-join window. *)
let wall_seq ?(repeats = 3) (b : t) : float =
  match Hashtbl.find_opt b.wall_seq_cache repeats with
  | Some v -> v
  | None ->
    let samples =
      List.init repeats (fun _ ->
          let m = Interp.Machine.load b.prog in
          let t0 = Unix.gettimeofday () in
          ignore (Interp.Machine.run m);
          (Unix.gettimeofday () -. t0) *. 1e9)
    in
    let v = median samples in
    Hashtbl.replace b.wall_seq_cache repeats v;
    v

(** Wall-clock run of the expanded program on [domains] real domains,
    median of [repeats]. Every single run — not just the median — is
    judged by the verdict, so a racy merge cannot hide behind a fast
    time. *)
let wall ?(repeats = 3) (b : t) ~(domains : int) : wall_result =
  match Hashtbl.find_opt b.wall_cache (domains, repeats) with
  | Some r -> r
  | None ->
    let runs =
      List.init repeats (fun _ ->
          judged_domains b
            (Domexec.Exec.run ~domains b.expanded.Expand.Transform.transformed
               b.expanded.Expand.Transform.plan b.lids))
    in
    let par_ns = median (List.map (fun r -> r.Domexec.Exec.dx_wall_ns) runs) in
    let seq_ns = wall_seq ~repeats b in
    let r0 = List.hd runs in
    let distributed =
      List.length
        (List.filter
           (fun (lr : Domexec.Exec.loop_report) ->
             lr.Domexec.Exec.lr_decision = Domexec.Exec.Distributed)
           r0.Domexec.Exec.dx_loops)
    in
    let wr =
      {
        wr_domains = domains;
        wr_used = r0.Domexec.Exec.dx_domains;
        wr_seq_ns = seq_ns;
        wr_par_ns = par_ns;
        wr_speedup = seq_ns /. par_ns;
        wr_steals = r0.Domexec.Exec.dx_steals;
        wr_distributed = distributed;
        wr_fallback = r0.Domexec.Exec.dx_fallback;
      }
    in
    Hashtbl.replace b.wall_cache (domains, repeats) wr;
    wr

(** One traced run on [domains] domains, memoized: the recorder and
    its wall time. The run is [force]d so single-core CI hosts still
    exercise the parallel scheduler, and judged like {!wall}'s runs;
    it is kept separate from the wall measurements so ring
    instrumentation never contaminates a timed sample. Both
    the sched report and the critical-path profile derive from this
    single recording, so they always describe the same run. *)
let traced (b : t) ~(domains : int) : Domexec.Domtrace.t * float =
  match Hashtbl.find_opt b.trace_cache domains with
  | Some tw -> tw
  | None ->
    let tr = Domexec.Domtrace.create () in
    let r =
      judged_domains b
        (Domexec.Exec.run ~domains ~force:true ~trace:tr
           b.expanded.Expand.Transform.transformed
           b.expanded.Expand.Transform.plan b.lids)
    in
    let tw = (tr, r.Domexec.Exec.dx_wall_ns) in
    Hashtbl.replace b.trace_cache domains tw;
    tw

let sched (b : t) ~(domains : int) : Domexec.Domtrace.Sched_report.report =
  Domexec.Domtrace.Sched_report.analyze (fst (traced b ~domains))

let critpath (b : t) ~(domains : int) : Domexec.Critpath.profile =
  Domexec.Critpath.analyze (fst (traced b ~domains))
