(** One-call front door: profile a loop and classify its accesses. *)

open Minic

type result = {
  profile : Depgraph.Profiler.profile;
  classification : Classify.classification;
  induction_vars : string list;
  loop_stmt : Ast.stmt;
  loop_fun : Ast.fundef;
}

(** Profile loop [lid] of a type-checked program
    ({!Depgraph.Profiler.profile}: one run serves all the loops of its
    pass), recognize the loop's basic induction variables, and classify
    every access per Definitions 4-5.
    @raise Invalid_argument if no loop has id [lid]. *)
val analyze : Ast.program -> Ast.lid -> result

(** [analyze] over a profile of loop [lid] made elsewhere.
    @raise Invalid_argument if no loop has id [lid]. *)
val of_profile : Ast.program -> Ast.lid -> Depgraph.Profiler.profile -> result
