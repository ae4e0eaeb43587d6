(** AST traversal helpers shared by the analyses and transformations. *)

type access_kind = Load | Store

val pp_access_kind : Format.formatter -> access_kind -> unit
val show_access_kind : access_kind -> string
val equal_access_kind : access_kind -> access_kind -> bool

(** One static memory-access site. *)
type access = { acc_aid : Ast.aid; acc_kind : access_kind; acc_lval : Ast.lval }

(** Fold over every access site in an expression, in evaluation order.
    [Addr] computes an address without loading, so only loads nested in
    its lvalue's index/pointer subexpressions are visited. *)
val fold_exp_accesses : ('a -> access -> 'a) -> 'a -> Ast.exp -> 'a

(** Accesses performed to compute the {e address} of an lvalue (loads
    inside [Deref] pointers and [Index] subscripts), not the access to
    the lvalue itself. *)
val fold_lval_accesses : ('a -> access -> 'a) -> 'a -> Ast.lval -> 'a

val fold_stmt_accesses : ('a -> access -> 'a) -> 'a -> Ast.stmt -> 'a

(** All access sites of a statement / function body, in visit order. *)
val accesses_of_stmt : Ast.stmt -> access list

val accesses_of_fun : Ast.fundef -> access list

(** Map every statement bottom-up. *)
val map_stmt : (Ast.stmt -> Ast.stmt) -> Ast.stmt -> Ast.stmt

(** Find the loop statement with the given loop id, if any. *)
val find_loop : Ast.stmt -> Ast.lid -> Ast.stmt option

(** Find the function whose body contains loop [lid], with the loop. *)
val find_loop_fun : Ast.program -> Ast.lid -> (Ast.fundef * Ast.stmt) option

(** The condition and body of a loop statement.
    @raise Invalid_argument on non-loops. *)
val loop_parts : Ast.stmt -> Ast.exp * Ast.stmt

(** Rewrite the expressions of a statement tree; [fe] is applied to
    every statement-level expression, [flv] to every statement-level
    lvalue (recursing over substatements). *)
val map_stmt_exps :
  fe:(Ast.exp -> Ast.exp) -> flv:(Ast.lval -> Ast.lval) -> Ast.stmt -> Ast.stmt
