(** Deterministic, seeded fault injection for testing the guards.

    Faults model betrayed trust along the expansion pipeline: a
    dependence edge the profiler missed, a misclassified access class,
    under-offset redirection spans, and runtime allocation failure.
    All choices are functions of [seed] alone, so campaigns are
    reproducible. *)

open Minic

type kind =
  | Drop_dep_edge  (** remove one loop-carried dependence edge *)
  | Force_misclassify  (** declare one shared access class private *)
  | Truncate_span of int  (** bytes subtracted from every span *)
  | Alloc_failure of int  (** which runtime allocation fails (1-based) *)
  | Domain_crash of int
      (** crash the chosen chunk's first [n] acquisition attempts
          (domain-executor runs only; armed on the supervisor) *)
  | Domain_stall of int
      (** stall the chosen chunk [n] times until the watchdog fires *)
  | Writelog_corrupt of int
      (** corrupt the chosen chunk's write log in flight, [n] times *)
  | Steal_contention of int
      (** force the first [n] deque steal attempts to lose their CAS *)

type t = { seed : int; kind : kind }

val make : seed:int -> kind -> t
val describe : t -> string

(** Domain-executor faults are armed on [Domexec.Supervisor], not on
    the simulation pipeline; {!mangle} leaves the analyses untouched
    for them and {!attach_machine} is a no-op. *)
val domain_level : t -> bool

(** Deterministic chunk choice for domain-level faults: which chunk of
    a distributed invocation (loop [lid], invocation [inv], [nchunks]
    chunks) the fault targets. A pure function of the seed, so every
    domain — and every retry — agrees on the target. *)
val target_chunk : t -> lid:int -> inv:int -> nchunks:int -> int

(** Result of applying a fault to the analysis outputs. *)
type application = {
  analyses : Privatize.Analyze.result list;
  verdicts_changed : bool;
      (** did the fault actually flip some verdict (a harmless fault
          leaves the pipeline's decisions intact)? *)
  note : string;  (** human-readable description of what was mangled *)
}

(** Apply the fault to the analysis pipeline's outputs. Pure with
    respect to its inputs: graphs and verdict tables are copied before
    mangling, so the originals stay valid as a clean reference. *)
val mangle : t -> Ast.program -> Privatize.Analyze.result list -> application

(** The [span_shrink] to pass to [Expand.Transform.expand_loops]. *)
val span_shrink : t -> int option

(** Arm machine-level faults on a loaded machine (call from
    [Parexec.Sim]'s [attach] callback, so compile-time allocations are
    not counted). *)
val attach_machine : t -> Interp.Machine.t -> unit
