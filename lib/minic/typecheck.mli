(** Type checking and normalization.

    Beyond ordinary C-style checking, this pass establishes the
    invariants the rest of the system relies on: every [Lval] carries a
    unique access id (one load) and every store site one id;
    expression-level calls and conditionals are hoisted into
    statements; pointer indexing is rewritten to explicit dereference;
    struct assignment is exploded field-by-field (§3.3.1 of the
    paper). Normalization is idempotent and preserves existing access
    ids, so transformation passes may re-run it to validate their
    output. *)

type fun_sig = {
  fs_ret : Types.ty;
  fs_args : Types.ty list;
  fs_variadic : bool;
}

(** Program-wide typing environment: function signatures (builtins
    included) and global variable types. *)
type env = {
  prog : Ast.program;
  funs : (string, fun_sig) Hashtbl.t;
  gvars : (string, Types.ty) Hashtbl.t;
}

(** Per-function typing environment. *)
type fenv = {
  env : env;
  vars : (string, Types.ty) Hashtbl.t;  (** formals and locals *)
  fn_name : string;
  fn_ret : Types.ty;
  mutable new_locals : (string * Types.ty) list;
}

(** Signatures of the interpreter's builtin functions
    (malloc/free/printf/...). *)
val builtin_sigs : (string * fun_sig) list

val make_env : Ast.program -> env
val fenv_of : env -> Ast.fundef -> fenv

(** Type of an lvalue / expression in a function context (for
    already-normalized code). Array-typed results are NOT decayed;
    expression types are. Raises {!Loc.Error} on ill-typed input. *)
val lval_ty : ?loc:Loc.t -> fenv -> Ast.lval -> Types.ty

val exp_ty : ?loc:Loc.t -> fenv -> Ast.exp -> Types.ty

(** Type-check and normalize a whole program in place.
    Raises {!Loc.Error} on ill-typed input. *)
val check : Ast.program -> unit

(** Parse + check, the usual front door. *)
val parse_and_check : ?file:string -> string -> Ast.program
