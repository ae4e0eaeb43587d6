(** Type checking and normalization.

    Beyond ordinary C-style checking, this pass establishes the
    invariants the rest of the system relies on:

    - every [Lval] expression carries a unique access id (one load);
      every [Sassign]/[Scall] result carries a unique access id (one
      store); ids already assigned (e.g. by a transformation pass that
      re-runs the checker) are preserved;
    - expression-level [Call]s and [Cond]s are hoisted into statements
      ([Scall] / [Sif] over a fresh temporary), so downstream analyses
      see side-effect-free expressions;
    - pointer indexing [p\[i\]] is rewritten to [*(p + i)] so that
      [Index] always has an array base (Table 2 of the paper
      distinguishes the two redirection shapes);
    - struct-to-struct assignment is expanded into per-field scalar
      assignments, as §3.3.1 of the paper prescribes. *)

open Ast

type fun_sig = { fs_ret : Types.ty; fs_args : Types.ty list; fs_variadic : bool }

type env = {
  prog : program;
  funs : (string, fun_sig) Hashtbl.t;
  gvars : (string, Types.ty) Hashtbl.t;
}

type fenv = {
  env : env;
  vars : (string, Types.ty) Hashtbl.t;  (** formals and locals *)
  fn_name : string;
  fn_ret : Types.ty;
  mutable new_locals : (string * Types.ty) list;  (** temps, reversed *)
}


(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let builtin_sigs : (string * fun_sig) list =
  let ptr = Types.Tptr Types.Tvoid in
  let long = Types.Tint Types.ILong in
  let int = Types.Tint Types.IInt in
  let dbl = Types.Tfloat Types.FDouble in
  let str = Types.Tptr (Types.Tint Types.IChar) in
  [
    ("malloc", { fs_ret = ptr; fs_args = [ long ]; fs_variadic = false });
    ("calloc", { fs_ret = ptr; fs_args = [ long; long ]; fs_variadic = false });
    ("realloc", { fs_ret = ptr; fs_args = [ ptr; long ]; fs_variadic = false });
    ("free", { fs_ret = Types.Tvoid; fs_args = [ ptr ]; fs_variadic = false });
    ("printf", { fs_ret = int; fs_args = [ str ]; fs_variadic = true });
    ("putchar", { fs_ret = int; fs_args = [ int ]; fs_variadic = false });
    ("puts", { fs_ret = int; fs_args = [ str ]; fs_variadic = false });
    ("memset", { fs_ret = ptr; fs_args = [ ptr; int; long ]; fs_variadic = false });
    ("memcpy", { fs_ret = ptr; fs_args = [ ptr; ptr; long ]; fs_variadic = false });
    ("strlen", { fs_ret = long; fs_args = [ str ]; fs_variadic = false });
    ("abs", { fs_ret = int; fs_args = [ int ]; fs_variadic = false });
    ("labs", { fs_ret = long; fs_args = [ long ]; fs_variadic = false });
    ("sqrt", { fs_ret = dbl; fs_args = [ dbl ]; fs_variadic = false });
    ("fabs", { fs_ret = dbl; fs_args = [ dbl ]; fs_variadic = false });
    ("floor", { fs_ret = dbl; fs_args = [ dbl ]; fs_variadic = false });
    ("exp", { fs_ret = dbl; fs_args = [ dbl ]; fs_variadic = false });
    ("log", { fs_ret = dbl; fs_args = [ dbl ]; fs_variadic = false });
    ("rand", { fs_ret = int; fs_args = []; fs_variadic = false });
    ("srand", { fs_ret = Types.Tvoid; fs_args = [ int ]; fs_variadic = false });
    ("exit", { fs_ret = Types.Tvoid; fs_args = [ int ]; fs_variadic = false });
    ("assert", { fs_ret = Types.Tvoid; fs_args = [ int ]; fs_variadic = false });
  ]

let make_env (p : program) : env =
  let funs = Hashtbl.create 16 and gvars = Hashtbl.create 16 in
  List.iter (fun (n, s) -> Hashtbl.replace funs n s) builtin_sigs;
  List.iter
    (function
      | Gfun f ->
        Hashtbl.replace funs f.fname
          {
            fs_ret = f.freturn;
            fs_args = List.map snd f.fformals;
            fs_variadic = false;
          }
      | Gvar (n, t, _) -> Hashtbl.replace gvars n t
      | Gcomposite _ -> ())
    p.globals;
  { prog = p; funs; gvars }

let fenv_of (env : env) (f : fundef) : fenv =
  let vars = Hashtbl.create 16 in
  List.iter (fun (n, t) -> Hashtbl.replace vars n t) f.fformals;
  List.iter (fun (n, t) -> Hashtbl.replace vars n t) f.flocals;
  { env; vars; fn_name = f.fname; fn_ret = f.freturn; new_locals = [] }

let var_ty fe loc x : Types.ty =
  match Hashtbl.find_opt fe.vars x with
  | Some t -> t
  | None -> (
    match Hashtbl.find_opt fe.env.gvars x with
    | Some t -> t
    | None -> Loc.error loc "unbound variable '%s' in %s" x fe.fn_name)

(* ------------------------------------------------------------------ *)
(* Pure type computation (for already-normalized code)                 *)
(* ------------------------------------------------------------------ *)

let rec lval_ty ?(loc = Loc.dummy) fe (lv : lval) : Types.ty =
  match lv with
  | Var x -> var_ty fe loc x
  | Deref e -> Types.pointee loc (Types.decay (exp_ty ~loc fe e))
  | Index (base, _) -> (
    match lval_ty ~loc fe base with
    | Types.Tarray (elt, _) -> elt
    | t -> Loc.error loc "indexing a non-array lvalue of type %s" (Types.show_ty t))
  | Field (base, f) -> (
    match lval_ty ~loc fe base with
    | Types.Tstruct tag -> snd (Types.field_offset fe.env.prog.comps loc tag f)
    | t -> Loc.error loc "field access on non-struct type %s" (Types.show_ty t))

and exp_ty ?(loc = Loc.dummy) fe (e : exp) : Types.ty =
  match e with
  | Const (Cint (_, ik)) -> Types.Tint (Types.promote_ikind ik)
  | Const (Cfloat (_, fk)) -> Types.Tfloat fk
  | Const (Cstr _) -> Types.Tptr (Types.Tint Types.IChar)
  | Lval (_, lv) -> Types.decay (lval_ty ~loc fe lv)
  | Addr lv -> Types.Tptr (lval_ty ~loc fe lv)
  | Unop (Neg, a) -> exp_ty ~loc fe a
  | Unop (Lognot, _) -> Types.Tint Types.IInt
  | Unop (Bitnot, a) -> exp_ty ~loc fe a
  | Binop (op, a, b) -> binop_ty ~loc fe op a b
  | Cast (t, _) -> Types.decay t
  | SizeofType _ | SizeofExp _ -> Types.Tint Types.ILong
  | Call (f, _) -> (
    match Hashtbl.find_opt fe.env.funs f with
    | Some s -> s.fs_ret
    | None -> Loc.error loc "call to undefined function '%s'" f)
  | Cond (_, a, b) ->
    let ta = exp_ty ~loc fe a and tb = exp_ty ~loc fe b in
    if Types.is_pointer ta then ta
    else if Types.is_pointer tb then tb
    else Types.arith_join loc ta tb

and binop_ty ~loc fe op a b : Types.ty =
  let ta = exp_ty ~loc fe a and tb = exp_ty ~loc fe b in
  match op with
  | Add | Sub -> (
    match (ta, tb) with
    | t, i when Types.is_pointer t && Types.is_integer i -> t
    | i, t when Types.is_pointer t && Types.is_integer i && op = Add -> t
    | ta, tb when Types.is_pointer ta && Types.is_pointer tb && op = Sub ->
      Types.Tint Types.ILong
    | _ -> Types.arith_join loc ta tb)
  | Mul | Div -> Types.arith_join loc ta tb
  | Mod | Shl | Shr | Band | Bor | Bxor -> (
    match Types.arith_join loc ta tb with
    | Types.Tint _ as t -> t
    | t -> Loc.error loc "integer operator applied to %s" (Types.show_ty t))
  | Lt | Gt | Le | Ge | Eq | Ne | Land | Lor -> Types.Tint Types.IInt

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_temp fe (t : Types.ty) : string =
  let rec pick () =
    let name = fresh_var fe.env.prog "t" in
    if Hashtbl.mem fe.vars name || Hashtbl.mem fe.env.gvars name then pick ()
    else name
  in
  let name = pick () in
  Hashtbl.replace fe.vars name t;
  fe.new_locals <- (name, t) :: fe.new_locals;
  name

let give_aid prog aid = if aid = no_aid then fresh_aid prog else aid

(** Normalize an expression: returns hoisted prelude statements (in
    execution order) and the rewritten expression. *)
let rec norm_exp fe loc (e : exp) : stmt list * exp =
  let prog = fe.env.prog in
  match e with
  | Const _ | SizeofType _ -> ([], e)
  | SizeofExp inner ->
    (* sizeof does not evaluate its operand; compute its (non-decayed)
       type and fold to SizeofType. *)
    let t =
      match inner with
      | Lval (_, lv) -> lval_ty ~loc fe lv
      | e -> exp_ty ~loc fe e
    in
    ([], SizeofType t)
  | Lval (aid, lv) ->
    let pre, lv = norm_lval fe loc lv in
    (match lval_ty ~loc fe lv with
    | Types.Tarray _ ->
      (* Array decay: using an array lvalue as a value denotes its
         address, not a load. *)
      (pre, Addr lv)
    | _ -> (pre, Lval (give_aid prog aid, lv)))
  | Addr lv ->
    let pre, lv = norm_lval fe loc lv in
    (pre, Addr lv)
  | Unop (op, a) ->
    let pre, a = norm_exp fe loc a in
    (pre, Unop (op, a))
  | Binop (op, a, b) ->
    let pa, a = norm_exp fe loc a in
    let pb, b = norm_exp fe loc b in
    (pa @ pb, Binop (op, a, b))
  | Cast (t, a) ->
    let pre, a = norm_exp fe loc a in
    (pre, Cast (t, a))
  | Call (f, args) ->
    let sg =
      match Hashtbl.find_opt fe.env.funs f with
      | Some s -> s
      | None -> Loc.error loc "call to undefined function '%s'" f
    in
    if sg.fs_ret = Types.Tvoid then
      Loc.error loc "void call to '%s' used as a value" f;
    let pres, args = norm_args fe loc f sg args in
    let tmp = fresh_temp fe sg.fs_ret in
    let call =
      mk_stmt ~loc (Scall (Some (fresh_aid prog, Var tmp), f, args))
    in
    (pres @ [ call ], Lval (fresh_aid prog, Var tmp))
  | Cond (c, a, b) ->
    let pc, c = norm_exp fe loc c in
    let pa, a = norm_exp fe loc a in
    let pb, b = norm_exp fe loc b in
    if pa = [] && pb = [] then (pc, Cond (c, a, b))
    else begin
      (* Arms with hoisted calls become an if over a temporary. *)
      let t =
        let ta = exp_ty ~loc fe a and tb = exp_ty ~loc fe b in
        if Types.is_pointer ta then ta
        else if Types.is_pointer tb then tb
        else Types.arith_join loc ta tb
      in
      let tmp = fresh_temp fe t in
      let asg e = mk_stmt ~loc (Sassign (fresh_aid prog, Var tmp, e)) in
      let branch =
        mk_stmt ~loc
          (Sif (c, mk_stmt ~loc (Sseq (pa @ [ asg a ])),
                mk_stmt ~loc (Sseq (pb @ [ asg b ]))))
      in
      (pc @ [ branch ], Lval (fresh_aid prog, Var tmp))
    end

and norm_lval fe loc (lv : lval) : stmt list * lval =
  let prog = fe.env.prog in
  match lv with
  | Var x ->
    ignore (var_ty fe loc x);
    ([], lv)
  | Deref e ->
    let pre, e = norm_exp fe loc e in
    (match Types.decay (exp_ty ~loc fe e) with
    | Types.Tptr _ -> ()
    | t -> Loc.error loc "dereferencing non-pointer of type %s" (Types.show_ty t));
    (pre, Deref e)
  | Index (base, i) -> (
    let pb, base = norm_lval fe loc base in
    let pi, i = norm_exp fe loc i in
    (match exp_ty ~loc fe i with
    | Types.Tint _ -> ()
    | t -> Loc.error loc "array index has non-integer type %s" (Types.show_ty t));
    match lval_ty ~loc fe base with
    | Types.Tarray _ -> (pb @ pi, Index (base, i))
    | Types.Tptr _ ->
      (* p[i] ==> *(p + i): the pointer read becomes an explicit load. *)
      let pload = Lval (give_aid prog no_aid, base) in
      (pb @ pi, Deref (Binop (Add, pload, i)))
    | t -> Loc.error loc "indexing value of type %s" (Types.show_ty t))
  | Field (base, f) ->
    let pb, base = norm_lval fe loc base in
    (match lval_ty ~loc fe base with
    | Types.Tstruct tag ->
      ignore (Types.field_offset fe.env.prog.comps loc tag f)
    | t -> Loc.error loc "field access on non-struct type %s" (Types.show_ty t));
    (pb, Field (base, f))

and norm_args fe loc f sg (args : exp list) : stmt list * exp list =
  let nreq = List.length sg.fs_args in
  let nact = List.length args in
  if nact < nreq || ((not sg.fs_variadic) && nact > nreq) then
    Loc.error loc "function '%s' expects %d argument(s), got %d" f nreq nact;
  let pres, args =
    List.split
      (List.mapi
         (fun i a ->
           let pre, a = norm_exp fe loc a in
           let ta = exp_ty ~loc fe a in
           (if i < nreq then
              let treq = List.nth sg.fs_args i in
              check_assignable loc ~src:ta ~dst:treq
                ~what:(Printf.sprintf "argument %d of '%s'" (i + 1) f));
           (pre, a))
         args)
  in
  (List.concat pres, args)

(** Permissive C-style assignability: arithmetic types interconvert;
    any pointer converts to any pointer (benchmarks recast freely, cf.
    bzip2's [zptr]); the literal 0 converts to pointers. *)
and check_assignable loc ~src ~dst ~what =
  let ok =
    match (Types.decay src, Types.decay dst) with
    | a, b when Types.is_arith a && Types.is_arith b -> true
    | Types.Tptr _, Types.Tptr _ -> true
    | Types.Tint _, Types.Tptr _ -> true (* 0 / cast-free null idiom *)
    | Types.Tptr _, Types.Tint Types.ILong -> true
    | a, b -> Types.equal_ty a b
  in
  if not ok then
    Loc.error loc "%s: cannot convert %s to %s" what (Types.show_ty src)
      (Types.show_ty dst)

(** Expand struct assignment into field-by-field scalar assignments
    ("assignments to structure variables are treated as a series of
    scalar assignments", §3.3.1). *)
let rec explode_copy fe loc (dst : lval) (src : lval) (t : Types.ty) :
    stmt list =
  let prog = fe.env.prog in
  match t with
  | Types.Tstruct tag ->
    let c = Types.find_composite prog.comps loc tag in
    List.concat_map
      (fun (f, ft) -> explode_copy fe loc (Field (dst, f)) (Field (src, f)) ft)
      c.Types.cfields
  | Types.Tarray (elt, n) ->
    List.concat
      (List.init n (fun i ->
           explode_copy fe loc (Index (dst, cint i)) (Index (src, cint i)) elt))
  | _ ->
    [
      mk_stmt ~loc
        (Sassign (fresh_aid prog, dst, Lval (fresh_aid prog, src)));
    ]

let rec norm_stmt fe (s : stmt) : stmt =
  let prog = fe.env.prog in
  let loc = s.sloc in
  match s.skind with
  | Sskip | Sbreak | Scontinue -> s
  | Sassign (aid, lv, Call (f, args)) ->
    (* [lv = f(args);] is a call statement, not a hoist. *)
    norm_stmt fe { s with skind = Scall (Some (aid, lv), f, args) }
  | Sassign (aid, lv, e) -> (
    let plv, lv = norm_lval fe loc lv in
    let tlv = lval_ty ~loc fe lv in
    match (tlv, e) with
    | (Types.Tstruct _ | Types.Tarray _), Lval (_, src) ->
      let psrc, src = norm_lval fe loc src in
      let tsrc = lval_ty ~loc fe src in
      if not (Types.equal_ty tlv tsrc) then
        Loc.error loc "aggregate assignment with mismatched types";
      seq ~loc (plv @ psrc @ explode_copy fe loc lv src tlv)
    | (Types.Tstruct _ | Types.Tarray _), _ ->
      Loc.error loc "cannot assign a non-lvalue to an aggregate"
    | _, _ ->
      let pe, e = norm_exp fe loc e in
      check_assignable loc ~src:(exp_ty ~loc fe e) ~dst:tlv ~what:"assignment";
      seq ~loc
        (plv @ pe @ [ mk_stmt ~loc (Sassign (give_aid prog aid, lv, e)) ]))
  | Scall (ret, f, args) ->
    let sg =
      match Hashtbl.find_opt fe.env.funs f with
      | Some s -> s
      | None -> Loc.error loc "call to undefined function '%s'" f
    in
    let pres, args = norm_args fe loc f sg args in
    let pret, ret =
      match ret with
      | None -> ([], None)
      | Some (aid, lv) ->
        if sg.fs_ret = Types.Tvoid then
          Loc.error loc "assigning the result of void function '%s'" f;
        let plv, lv = norm_lval fe loc lv in
        check_assignable loc ~src:sg.fs_ret ~dst:(lval_ty ~loc fe lv)
          ~what:"call result";
        (plv, Some (give_aid prog aid, lv))
    in
    seq ~loc (pres @ pret @ [ mk_stmt ~loc (Scall (ret, f, args)) ])
  | Sseq stmts ->
    (* Flatten nested blocks and drop no-ops so that normalization is
       idempotent (locals are function-scoped, so flattening is safe). *)
    let flat =
      List.concat_map
        (fun s ->
          let s = norm_stmt fe s in
          match s.skind with Sskip -> [] | Sseq inner -> inner | _ -> [ s ])
        stmts
    in
    (match flat with
    | [] -> mk_stmt ~loc Sskip
    | [ s ] -> s
    | _ -> mk_stmt ~loc (Sseq flat))
  | Sif (c, a, b) ->
    let pc, c = norm_exp fe loc c in
    require_scalar fe loc c;
    let s = mk_stmt ~loc (Sif (c, norm_stmt fe a, norm_stmt fe b)) in
    seq ~loc (pc @ [ s ])
  | Swhile (lid, c, body) ->
    let pc, c = norm_exp fe loc c in
    if pc <> [] then
      Loc.error loc "calls are not allowed in loop conditions";
    require_scalar fe loc c;
    mk_stmt ~loc (Swhile (lid, c, norm_stmt fe body))
  | Sfor (lid, init, c, step, body) ->
    let init = norm_stmt fe init in
    let pc, c = norm_exp fe loc c in
    if pc <> [] then
      Loc.error loc "calls are not allowed in loop conditions";
    require_scalar fe loc c;
    let step = norm_stmt fe step in
    mk_stmt ~loc (Sfor (lid, init, c, step, norm_stmt fe body))
  | Sreturn None ->
    if fe.fn_ret <> Types.Tvoid && fe.fn_name <> "main" then
      Loc.error loc "non-void function '%s' returns no value" fe.fn_name;
    s
  | Sreturn (Some e) ->
    if fe.fn_ret = Types.Tvoid then
      Loc.error loc "void function '%s' returns a value" fe.fn_name;
    let pe, e = norm_exp fe loc e in
    check_assignable loc ~src:(exp_ty ~loc fe e) ~dst:fe.fn_ret
      ~what:"return value";
    seq ~loc (pe @ [ mk_stmt ~loc (Sreturn (Some e)) ])

and require_scalar fe loc c =
  let t = exp_ty ~loc fe c in
  if not (Types.is_scalar (Types.decay t)) then
    Loc.error loc "condition has non-scalar type %s" (Types.show_ty t)

and seq ~loc = function
  | [] -> mk_stmt ~loc Sskip
  | [ s ] -> s
  | stmts -> mk_stmt ~loc (Sseq stmts)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check_fun (env : env) (f : fundef) : fundef =
  let fe = fenv_of env f in
  let body = norm_stmt fe f.fbody in
  { f with fbody = body; flocals = f.flocals @ List.rev fe.new_locals }

(** Type-check and normalize a whole program in place. Idempotent:
    running it again changes nothing (all ids already assigned, all
    sugar already removed). Raises {!Loc.Error} on ill-typed input. *)
let check (p : program) : unit =
  let env = make_env p in
  (* Validate global initializers are constant-ish (no calls). *)
  List.iter
    (function
      | Gvar (name, ty, Some ini) ->
        let rec no_calls = function
          | Iexp (Call _) ->
            Loc.error Loc.dummy "initializer of '%s' contains a call" name
          | Iexp _ -> ()
          | Ilist l -> List.iter no_calls l
        in
        no_calls ini;
        ignore ty
      | _ -> ())
    p.globals;
  p.globals <-
    List.map
      (function Gfun f -> Gfun (check_fun env f) | g -> g)
      p.globals

(** Parse + check, the usual front door. *)
let parse_and_check ?file src : program =
  let p = Parser.parse_program ?file src in
  check p;
  p
