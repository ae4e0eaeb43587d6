(** Dynamic data-dependence profiling.

    Plays the role of the off-line dependence profiler the paper's
    workflow consumes (its references [38,39] plus manual
    verification): executes the program once under the interpreter's
    access observer and builds the exact loop-level dependence graph
    of Definition 1 at byte granularity, so recasting idioms (bzip2's
    short/int [zptr]) profile correctly. Freed heap blocks carry no
    dependences into their next allocation, and argument-binding
    stores are visible, so stack/heap address reuse cannot fabricate
    dependences. *)

open Minic

type profile = {
  graph : Graph.t;
  stats : Interp.Machine.stats;  (** whole-program instruction counts *)
  exit_code : int;
  output : string;
  peak_bytes : int;
}

(** Profile loop [lid] by running the whole program once.
    @raise Invalid_argument if no loop has id [lid]. *)
val profile : Ast.program -> Ast.lid -> profile
