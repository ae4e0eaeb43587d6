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
let no_aid : aid = -1

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

let mk_stmt ?(loc = Loc.dummy) skind = { skind; sloc = loc }
let skip = mk_stmt Sskip

let empty_program () =
  {
    globals = [];
    comps = Hashtbl.create 16;
    parallel_loops = [];
    next_aid = 0;
    next_lid = 0;
    next_tmp = 0;
  }

let fresh_aid p =
  let a = p.next_aid in
  p.next_aid <- a + 1;
  a

let fresh_lid p =
  let l = p.next_lid in
  p.next_lid <- l + 1;
  l

let fresh_var p prefix =
  let n = p.next_tmp in
  p.next_tmp <- n + 1;
  Printf.sprintf "__%s%d" prefix n

(* Convenience constructors used pervasively by transformation passes. *)

let cint ?(ik = Types.IInt) n = Const (Cint (Int64.of_int n, ik))
let czero = cint 0
let cone = cint 1
let load p lv = Lval (fresh_aid p, lv)
let assign ?loc p lv e = mk_stmt ?loc (Sassign (fresh_aid p, lv, e))
let add a b = Binop (Add, a, b)
let mul a b = Binop (Mul, a, b)

let find_fun p name =
  List.find_map
    (function Gfun f when String.equal f.fname name -> Some f | _ -> None)
    p.globals

let find_gvar p name =
  List.find_map
    (function
      | Gvar (n, t, i) when String.equal n name -> Some (t, i) | _ -> None)
    p.globals

let replace_fun p (f : fundef) =
  p.globals <-
    List.map
      (function
        | Gfun g when String.equal g.fname f.fname -> Gfun f | g -> g)
      p.globals

(** All function definitions, in declaration order. *)
let functions p =
  List.filter_map (function Gfun f -> Some f | _ -> None) p.globals

(** All global variables, in declaration order. *)
let global_vars p =
  List.filter_map
    (function Gvar (n, t, i) -> Some (n, t, i) | _ -> None)
    p.globals
