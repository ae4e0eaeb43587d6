(** Structured guard violations.

    Every runtime or static guard in this library reports failure as a
    {!Violation} carrying which guard fired, which loop and access (and
    access class) it localized, and a human-readable detail line. *)

open Minic

type guard_kind =
  | Span_guard
      (** a redirected access landed outside the thread's copy of an
          expanded block (or straddled a copy boundary) *)
  | Contract_static
      (** a Definition-5 precondition claimed by the expansion plan is
          not supported by the reference classification *)
  | Contract_stream
      (** the per-access value stream of an expanded run diverged from
          the sequential oracle *)
  | Contract_final
      (** the final memory state of an eligible global diverged from
          the sequential oracle *)
  | Contract_output
      (** a run's output or exit code diverged from the sequential
          oracle *)

type info = {
  guard : guard_kind;
  loop : Ast.lid option;  (** target loop the access belongs to *)
  access : Ast.aid option;  (** the first offending access site *)
  access_class : Ast.aid list option;  (** members of its access class *)
  detail : string;
}

exception Violation of info

val guard_name : guard_kind -> string
val to_string : info -> string
val pp : Format.formatter -> info -> unit

(** Raise a {!Violation} with a formatted detail line. *)
val fire :
  ?loop:Ast.lid ->
  ?access:Ast.aid ->
  ?access_class:Ast.aid list ->
  guard_kind ->
  ('a, unit, string, 'b) format4 ->
  'a
