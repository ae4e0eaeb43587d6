(** Cross-domain critical-path profiler over {!Domtrace} recordings.

    The per-domain event rings already contain a happens-before
    skeleton of every parallel run: chunks are claimed, executed and
    finished per domain; every distributed invocation ends in a
    barrier (all domains arrive before any [Merge_begin]) followed by
    a per-domain write-log replay and output splice. This module
    reconstructs that DAG from each domain's typed {!Segments} (chunk
    execution, claim gaps, steal probes, supervision backoff, merge
    replay, GC pauses, and the remaining interpreter time — replicated
    loops, straight-line code and the skip-traversal of non-owned
    iterations), and replays the schedule
    through a virtual clock: domains advance through their segments
    and synchronize at each merge barrier. The longest chain through
    that replay is the critical path; per-phase leaders' segments are
    its composition, and every other domain's slack at a barrier is
    derived wait time.

    Every segment carries two weights, and the replay runs under
    either one:

    - {e measured} host nanoseconds, for explaining an actual wall
      clock (and for the what-if estimator);
    - {e virtual time}: the interpreter's deterministic cycle counter
      ({!Ring.event.ev_vt} deltas; merge segments weigh their
      replayed bytes / 8). Under a race-free schedule the virtual
      weights, the schedule and hence the whole model section are
      byte-reproducible across runs — that is the part CI compares.

    The gap between the two is the point: on md5 the cycle model
    predicts near-linear scaling while the wall clock shows ~1.0x,
    and the measured section names which class absorbed the
    difference.

    The what-if estimator is the offline analogue of causal
    profiling: shrink one segment class (or one specific chunk) by
    k%, re-run the virtual clock, and report the wall-clock speedup
    that would have resulted. Barrier time is never a target — it is
    slack, derived from the other classes. *)

type profile

(** Reconstruct and replay the recording. Folds over
    {!Domtrace.segments} (computed once per recorder, so combining with
    {!Domtrace.to_chrome} or {!Domtrace.Sched_report} over the same
    recorder is fine) and the measured GC pause time attributed per
    domain by {!Domtrace.Sched_report.analyze}. *)
val analyze : Domtrace.t -> profile

val domains : profile -> int
val attempts : profile -> int

(** Critical-path length of the measured replay, ns. Close to the
    run's actual wall time; small differences are event-granularity
    slack. *)
val wall_ns : profile -> float

(** Critical-path length in virtual time (cycles). *)
val vt_critpath : profile -> int

(** Total virtual work / critical-path virtual time: the schedule's
    available parallelism under the cycle model. *)
val model_parallelism : profile -> float

(** [seq_cycles / vt_critpath]: the speedup the cycle model predicts
    for this schedule. *)
val model_speedup : profile -> seq_cycles:int -> float

(** [seq_ns / wall_ns]: the measured speedup this run achieved. *)
val measured_speedup : profile -> seq_ns:float -> float

(** The class with the largest share of the measured critical path,
    with that share (of the path length). Class names: ["exec"],
    ["claim"], ["steal"], ["backoff"], ["merge"], ["gc"], ["interp"]. *)
val dominant : profile -> string * float

type whatif_row = {
  wf_target : string;
      (** a class name, or a chunk label like ["L0#3"] *)
  wf_speedups : (int * float) list;
      (** shrink percentage -> virtual wall-clock speedup *)
}

(** Causal what-if table over every class with on-path weight plus
    the heaviest single chunk; [ks] defaults to [[10; 25; 50; 100]]. *)
val whatif : ?ks:int list -> profile -> whatif_row list

(** Schema [dsexpand-critpath/1]. The base object (schedule shape,
    event counts, virtual-time model, [extra] fields prepended) is
    deterministic under a race-free schedule; [whatif:true] appends
    the host-clock ["measured"] section and the ["whatif"] table,
    which are not. [seq_cycles] and [seq_ns] (the sequential
    original's cost and wall time) enable the model/measured speedup
    fields. *)
val to_json :
  ?seq_ns:float ->
  ?seq_cycles:int ->
  ?whatif:bool ->
  ?extra:(string * Telemetry.Json.t) list ->
  profile ->
  Telemetry.Json.t

(** Human-readable rendering of the same sections. *)
val to_table :
  ?seq_ns:float -> ?seq_cycles:int -> ?whatif:bool -> profile -> string
