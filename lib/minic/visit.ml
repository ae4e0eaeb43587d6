(** AST traversal helpers shared by the analyses and transformations. *)

open Ast

type access_kind = Load | Store [@@deriving show { with_path = false }, eq]

(** One static memory-access site. *)
type access = { acc_aid : aid; acc_kind : access_kind; acc_lval : lval }

(** Fold [f] over every access site in an expression, in evaluation
    order. [Addr] computes an address without loading, so only loads
    nested in its lvalue's index/pointer expressions are visited. *)
let rec fold_exp_accesses f acc (e : exp) =
  match e with
  | Const _ | SizeofType _ -> acc
  | SizeofExp e -> fold_exp_accesses f acc e
  | Lval (aid, lv) ->
    let acc = fold_lval_accesses f acc lv in
    f acc { acc_aid = aid; acc_kind = Load; acc_lval = lv }
  | Addr lv -> fold_lval_accesses f acc lv
  | Unop (_, a) -> fold_exp_accesses f acc a
  | Binop (_, a, b) -> fold_exp_accesses f (fold_exp_accesses f acc a) b
  | Cast (_, a) -> fold_exp_accesses f acc a
  | Call (_, args) -> List.fold_left (fold_exp_accesses f) acc args
  | Cond (c, a, b) ->
    fold_exp_accesses f
      (fold_exp_accesses f (fold_exp_accesses f acc c) a)
      b

(** Accesses performed to {e compute the address} of an lvalue (loads
    inside [Deref] pointers and [Index] subscripts), not the access to
    the lvalue itself. *)
and fold_lval_accesses f acc (lv : lval) =
  match lv with
  | Var _ -> acc
  | Deref e -> fold_exp_accesses f acc e
  | Index (base, i) -> fold_exp_accesses f (fold_lval_accesses f acc base) i
  | Field (base, _) -> fold_lval_accesses f acc base

let rec fold_stmt_accesses f acc (s : stmt) =
  match s.skind with
  | Sskip | Sbreak | Scontinue -> acc
  | Sassign (aid, lv, e) ->
    let acc = fold_lval_accesses f acc lv in
    let acc = fold_exp_accesses f acc e in
    f acc { acc_aid = aid; acc_kind = Store; acc_lval = lv }
  | Scall (ret, _, args) ->
    let acc = List.fold_left (fold_exp_accesses f) acc args in
    (match ret with
    | None -> acc
    | Some (aid, lv) ->
      let acc = fold_lval_accesses f acc lv in
      f acc { acc_aid = aid; acc_kind = Store; acc_lval = lv })
  | Sseq stmts -> List.fold_left (fold_stmt_accesses f) acc stmts
  | Sif (c, a, b) ->
    let acc = fold_exp_accesses f acc c in
    fold_stmt_accesses f (fold_stmt_accesses f acc a) b
  | Swhile (_, c, body) ->
    fold_stmt_accesses f (fold_exp_accesses f acc c) body
  | Sfor (_, init, c, step, body) ->
    let acc = fold_stmt_accesses f acc init in
    let acc = fold_exp_accesses f acc c in
    let acc = fold_stmt_accesses f acc step in
    fold_stmt_accesses f acc body
  | Sreturn None -> acc
  | Sreturn (Some e) -> fold_exp_accesses f acc e

(** All access sites of a statement, in visit order. *)
let accesses_of_stmt (s : stmt) : access list =
  List.rev (fold_stmt_accesses (fun acc a -> a :: acc) [] s)

let accesses_of_fun (f : fundef) : access list = accesses_of_stmt f.fbody

(** Map every statement bottom-up. *)
let rec map_stmt (f : stmt -> stmt) (s : stmt) : stmt =
  let k = s.skind in
  let s' =
    match k with
    | Sskip | Sassign _ | Scall _ | Sreturn _ | Sbreak | Scontinue -> s
    | Sseq stmts -> { s with skind = Sseq (List.map (map_stmt f) stmts) }
    | Sif (c, a, b) -> { s with skind = Sif (c, map_stmt f a, map_stmt f b) }
    | Swhile (lid, c, body) ->
      { s with skind = Swhile (lid, c, map_stmt f body) }
    | Sfor (lid, init, c, step, body) ->
      {
        s with
        skind =
          Sfor (lid, map_stmt f init, c, map_stmt f step, map_stmt f body);
      }
  in
  f s'

(** Find the loop statement with the given loop id, if any. *)
let find_loop (body : stmt) (lid : lid) : stmt option =
  let found = ref None in
  let rec go s =
    if Option.is_none !found then
      match s.skind with
      | (Swhile (l, _, _) | Sfor (l, _, _, _, _)) when l = lid ->
        found := Some s
      | Sseq stmts -> List.iter go stmts
      | Sif (_, a, b) ->
        go a;
        go b
      | Swhile (_, _, body) -> go body
      | Sfor (_, init, _, step, body) ->
        go init;
        go step;
        go body
      | _ -> ()
  in
  go body;
  !found

(** Find the function whose body contains loop [lid]. *)
let find_loop_fun (p : program) (lid : lid) : (fundef * stmt) option =
  List.find_map
    (fun f ->
      match find_loop f.fbody lid with
      | Some s -> Some (f, s)
      | None -> None)
    (functions p)

(** The body statement and condition of a loop statement. *)
let loop_parts (s : stmt) : exp * stmt =
  match s.skind with
  | Swhile (_, c, body) -> (c, body)
  | Sfor (_, _, c, _, body) -> (c, body)
  | _ -> invalid_arg "loop_parts: not a loop"

(** Map over all expressions within a statement (shallow per-statement:
    rewrites the exps of the statement itself; recursion over substatements
    is included). Lvalues are rewritten via [flv]. *)
let rec map_stmt_exps ~(fe : exp -> exp) ~(flv : lval -> lval) (s : stmt) :
    stmt =
  let k =
    match s.skind with
    | Sskip | Sbreak | Scontinue -> s.skind
    | Sassign (aid, lv, e) -> Sassign (aid, flv lv, fe e)
    | Scall (ret, f, args) ->
      let ret = Option.map (fun (aid, lv) -> (aid, flv lv)) ret in
      Scall (ret, f, List.map fe args)
    | Sseq stmts -> Sseq (List.map (map_stmt_exps ~fe ~flv) stmts)
    | Sif (c, a, b) ->
      Sif (fe c, map_stmt_exps ~fe ~flv a, map_stmt_exps ~fe ~flv b)
    | Swhile (lid, c, body) -> Swhile (lid, fe c, map_stmt_exps ~fe ~flv body)
    | Sfor (lid, init, c, step, body) ->
      Sfor
        ( lid,
          map_stmt_exps ~fe ~flv init,
          fe c,
          map_stmt_exps ~fe ~flv step,
          map_stmt_exps ~fe ~flv body )
    | Sreturn e -> Sreturn (Option.map fe e)
  in
  { s with skind = k }
