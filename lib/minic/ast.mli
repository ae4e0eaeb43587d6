(** MiniC abstract syntax.

    Two design points matter for the expansion technique:

    - Every memory access in a program has a unique {e access id} ([aid]).
      An [Lval] expression is exactly one load; the left-hand side of an
      [Sassign] (or the result lvalue of an [Scall]) is exactly one store.
      The type checker normalizes sugar (pointer indexing, [->]) so that
      this invariant holds; the dependence profiler, the access-class
      partitioning and the redirection pass all key on [aid]s.
    - Every loop has a unique {e loop id} ([lid]); parallelization
      candidates are marked with [#pragma parallel] in source and recorded
      in the program. *)

type aid = int [@@deriving show { with_path = false }, eq, ord]
type lid = int [@@deriving show { with_path = false }, eq, ord]

(** Placeholder access id before the type checker numbers the access. *)
val no_aid : aid

type unop = Neg | Lognot | Bitnot
[@@deriving show { with_path = false }, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | Land
  | Lor
[@@deriving show { with_path = false }, eq]

type constant =
  | Cint of int64 * Types.ikind
  | Cfloat of float * Types.fkind
  | Cstr of string
[@@deriving show { with_path = false }, eq]

type exp =
  | Const of constant
  | Lval of aid * lval  (** a load from the lvalue's address *)
  | Addr of lval  (** [&lv]; computes an address, loads nothing itself *)
  | Unop of unop * exp
  | Binop of binop * exp * exp
  | Cast of Types.ty * exp
  | SizeofType of Types.ty
  | SizeofExp of exp  (** resolved to [SizeofType] by the type checker *)
  | Call of string * exp list
      (** only produced by the parser; the type checker hoists every call
          into a separate [Scall] statement, so analyses and
          transformations never see expression-level calls *)
  | Cond of exp * exp * exp  (** [c ? a : b] *)

and lval =
  | Var of string
  | Deref of exp  (** [*e] *)
  | Index of lval * exp  (** [lv\[i\]]; after type checking, [lv] is an array *)
  | Field of lval * string  (** [lv.f]; [e->f] parses as [Field (Deref e, f)] *)
[@@deriving show { with_path = false }, eq]

type stmt = { skind : stmt_kind; sloc : Loc.t }

and stmt_kind =
  | Sskip
  | Sassign of aid * lval * exp
  | Scall of (aid * lval) option * string * exp list
  | Sseq of stmt list
  | Sif of exp * stmt * stmt
  | Swhile of lid * exp * stmt
  | Sfor of lid * stmt * exp * stmt * stmt
      (** init, condition, step, body; kept distinct from [Swhile] so that
          [continue] executes the step *)
  | Sreturn of exp option
  | Sbreak
  | Scontinue
[@@deriving show { with_path = false }, eq]

type fundef = {
  fname : string;
  freturn : Types.ty;
  fformals : (string * Types.ty) list;
  fformal_aids : aid list;
      (** one access id per formal, for the store that binds its
          argument at a call; drawn when the program is built (by the
          type checker, or by the pass that adds the formal), so
          loading a program never changes it *)
  flocals : (string * Types.ty) list;
  fbody : stmt;
}

type init = Iexp of exp | Ilist of init list
[@@deriving show { with_path = false }, eq]

type global =
  | Gcomposite of Types.composite
  | Gvar of string * Types.ty * init option
  | Gfun of fundef

type program = {
  mutable globals : global list;
  comps : Types.composite_env;
  mutable parallel_loops : lid list;
      (** loops marked [#pragma parallel], outermost first *)
  mutable next_aid : int;
  mutable next_lid : int;
  mutable next_tmp : int;
}

val mk_stmt : ?loc:Loc.t -> stmt_kind -> stmt

(** [mk_stmt Sskip] at the dummy location. *)
val skip : stmt

val empty_program : unit -> program

(** Draw a fresh access id / loop id from the program's counters. *)
val fresh_aid : program -> aid

val fresh_lid : program -> lid

(** A fresh temporary name ["__<prefix><n>"]; the [__] prefix keeps
    generated names out of the source namespace. *)
val fresh_var : program -> string -> string

(* Convenience constructors used pervasively by transformation passes. *)

val cint : ?ik:Types.ikind -> int -> exp
val czero : exp
val cone : exp

(** A load with a freshly numbered access id. *)
val load : program -> lval -> exp

(** An assignment with a freshly numbered store id. *)
val assign : ?loc:Loc.t -> program -> lval -> exp -> stmt

val add : exp -> exp -> exp
val mul : exp -> exp -> exp
val find_fun : program -> string -> fundef option
val find_gvar : program -> string -> (Types.ty * init option) option

(** Replace the definition of the function with the same name. *)
val replace_fun : program -> fundef -> unit

(** All function definitions, in declaration order. *)
val functions : program -> fundef list

(** All global variables, in declaration order. *)
val global_vars : program -> (string * Types.ty * init option) list
