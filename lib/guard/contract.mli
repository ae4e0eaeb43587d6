(** The privatization-contract checker and the one verdict: judges a
    run against the sequential oracle and localizes the first
    diverging access class. See the implementation header for the
    three layers (static revalidation, per-access value streams, the
    verdict). All failures raise {!Violation.Violation}. *)

open Minic

type oracle = {
  o_streams : (Ast.aid, Bytes.t) Hashtbl.t;
      (** per access site: 9-byte events, kind char + value (LE) *)
  o_finals : (string, string) Hashtbl.t;  (** global name -> final bytes *)
  o_output : string;
  o_exit : int;
  o_cycles : int;
      (** interpreter cycles of the run (an observer charges none, so
          the count is the plain run's) *)
}

(** Run the original program once sequentially, recording per-access
    value streams (pointer-typed accesses excluded — addresses differ
    between runs), final bytes of pointer-free globals, output, exit
    code and cycle count. *)
val oracle_of : Ast.program -> Privatize.Analyze.result list -> oracle

(** Static cross-check of the plan's Definition-5 claims against a
    reference classification: every access the plan privatizes must be
    judged [Private] by the reference too.
    @raise Violation.Violation with [Contract_static] on mismatch. *)
val revalidate : Expand.Plan.t -> Privatize.Analyze.result list -> unit

type checker

(** Chain the stream checker onto a loaded machine of the {e expanded}
    program (from [Parexec.Sim]'s [attach] callback); raises at the
    first access whose (kind, value) diverges from the oracle. *)
val attach : oracle -> Expand.Plan.t -> Interp.Machine.t -> checker

(** The one comparison of a finished run with the sequential oracle,
    for every executor. In order: every stream of [checker] (when one
    was attached to this run) fully consumed; every eligible global of
    [m] byte-identical to the oracle's final state — pointer-free and
    not expanded by [plan], or every pointer-free global when there is
    no plan (a run of the original program); [m]'s output; then
    [exit], the run's exit code.
    @raise Violation.Violation at the first difference: [Contract_stream],
    [Contract_final], or [Contract_output] for output and exit code. *)
val verdict :
  oracle -> ?plan:Expand.Plan.t -> ?checker:checker -> exit:int ->
  Interp.Machine.t -> unit

(** The verdict's final-state step alone, for a caller that judges
    output and exit code itself (perfbench's per-round check).
    @raise Violation.Violation with [Contract_final] on divergence. *)
val check_finals : oracle -> Expand.Plan.t -> Interp.Machine.t -> unit
