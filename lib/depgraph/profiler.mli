(** Dynamic data-dependence profiling.

    Plays the role of the off-line dependence profiler the paper's
    workflow consumes (its references [38,39] plus manual
    verification): executes the program under the interpreter's access
    observer, once for many loops, and builds the exact loop-level
    dependence graph of Definition 1 for each at byte granularity, so
    recasting idioms (bzip2's short/int [zptr]) profile correctly.
    Freed heap blocks carry no dependences into their next allocation,
    and argument-binding stores are visible, so stack/heap address
    reuse cannot fabricate dependences. *)

open Minic

type profile = {
  graph : Graph.t;
  stats : Interp.Machine.stats;  (** whole-program instruction counts *)
  exit_code : int;
  output : string;
  peak_bytes : int;
}

(** Profile loop [lid]. The program's parallel loops are profiled in
    passes, one instrumented run each: loops that can never be active
    at the same time share a pass, and a loop inside another's
    statement, or in a function reachable from it, goes to another
    pass. A call runs [lid]'s pass and keeps the profiles it made for
    the pass's other loops in a domain-local slot; a later call on the
    same program (physically) for one of those loops takes its profile
    from there instead of running again. Each kept profile is handed
    out once; the slot is emptied when the last one is, and a call that
    runs a pass over another program drops it. So [List.map (profile p)
    p.parallel_loops] runs one pass per group, and every profile equals
    what a pass over its loop alone gives.
    @raise Invalid_argument if no loop has id [lid]. *)
val profile : Ast.program -> Ast.lid -> profile

(** Profile the loops [lids] in one run of the program, returning their
    profiles in order. Each equals the profile of a run over its loop
    alone.
    @raise Invalid_argument if a lid names no loop, or if one of the
    loops may run while another is active (it lies in the other's
    statement or in a function callable from it). *)
val profile_loops : Ast.program -> Ast.lid list -> profile list
