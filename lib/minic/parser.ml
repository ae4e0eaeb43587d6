(** Recursive-descent parser for MiniC.

    Grammar subset: struct definitions, global variables with constant
    initializers, function definitions, C89-style statements, and full
    expression syntax with C precedence (including casts, [sizeof],
    [?:], compound assignment and [++]/[--], which are desugared here).

    A [#pragma parallel] line marks the next loop as a parallelization
    candidate; its loop id is recorded in [program.parallel_loops]. *)

open Ast

type st = {
  toks : Lexer.t array;
  mutable pos : int;
  prog : program;
  mutable pending_pragma : bool;  (** saw [#pragma parallel] not yet consumed *)
}

let peek st = st.toks.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else peek st
let loc st = (peek st).loc
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let err st fmt = Loc.error (loc st) fmt

let expect_punct st p =
  match (peek st).tok with
  | PUNCT q when String.equal p q -> advance st
  | t -> err st "expected '%s' but found %s" p (Lexer.show_token t)

let expect_kw st k =
  match (peek st).tok with
  | KW q when String.equal k q -> advance st
  | t -> err st "expected '%s' but found %s" k (Lexer.show_token t)

let eat_punct st p =
  match (peek st).tok with
  | PUNCT q when String.equal p q ->
    advance st;
    true
  | _ -> false

let eat_kw st k =
  match (peek st).tok with
  | KW q when String.equal k q ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match (peek st).tok with
  | IDENT s ->
    advance st;
    s
  | t -> err st "expected an identifier but found %s" (Lexer.show_token t)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

(** Is the upcoming token the start of a type? Used to disambiguate
    casts from parenthesized expressions and declarations from
    statements (MiniC has no typedefs, so this is purely syntactic). *)
let starts_type st =
  match (peek st).tok with
  | KW
      ( "void" | "char" | "short" | "int" | "long" | "unsigned" | "float"
      | "double" | "struct" | "const" | "static" | "extern" ) ->
    true
  | _ -> false

let rec parse_base_type st : Types.ty =
  (* Storage/qualifier keywords are accepted and ignored. *)
  if eat_kw st "const" || eat_kw st "static" || eat_kw st "extern" then
    parse_base_type st
  else if eat_kw st "unsigned" then
    (* MiniC integers are signed with wraparound; [unsigned] is accepted
       for source compatibility and mapped to the same-width kind. *)
    parse_int_kind st
  else if eat_kw st "void" then Types.Tvoid
  else if eat_kw st "float" then Types.Tfloat FFloat
  else if eat_kw st "double" then Types.Tfloat FDouble
  else if eat_kw st "struct" then Types.Tstruct (expect_ident st)
  else parse_int_kind st

and parse_int_kind st : Types.ty =
  if eat_kw st "char" then Types.Tint IChar
  else if eat_kw st "short" then begin
    ignore (eat_kw st "int");
    Types.Tint IShort
  end
  else if eat_kw st "long" then begin
    ignore (eat_kw st "long");
    ignore (eat_kw st "int");
    Types.Tint ILong
  end
  else if eat_kw st "int" then Types.Tint IInt
  else err st "expected a type but found %s" (Lexer.show_token (peek st).tok)

(* Declarators follow C's inside-out reading: "int *a[10]" is an array
   of pointers while "int ( *a )[10]" is a pointer to an array. The
   shape is parsed first and then applied to the base type. *)
type decl_shape =
  | DName of string
  | DPtr of decl_shape
  | DArr of decl_shape * int list

let rec apply_shape (shape : decl_shape) (t : Types.ty) : string * Types.ty =
  match shape with
  | DName n -> (n, t)
  | DPtr d -> apply_shape d (Types.Tptr t)
  | DArr (d, dims) ->
    apply_shape d (List.fold_right (fun n t -> Types.Tarray (t, n)) dims t)

(** Declarators like [int *x\[10\]\[20\]] or a parenthesized
    pointer-to-array: returns the name and full type. *)
let parse_declarator st base : string * Types.ty =
  let rec decl () : decl_shape =
    if eat_punct st "*" then DPtr (decl ()) else direct ()
  and direct () =
    let inner =
      if eat_punct st "(" then begin
        let d = decl () in
        expect_punct st ")";
        d
      end
      else DName (expect_ident st)
    in
    let rec suffixes acc =
      if eat_punct st "[" then begin
        let n =
          match (peek st).tok with
          | INTLIT (v, _) ->
            advance st;
            Int64.to_int v
          | _ -> err st "array bounds must be integer literals"
        in
        expect_punct st "]";
        suffixes (n :: acc)
      end
      else List.rev acc
    in
    match suffixes [] with [] -> inner | dims -> DArr (inner, dims)
  in
  apply_shape (decl ()) base

(** A full type with no declarator, as in casts and [sizeof]: supports
    pointer chains, array suffixes, and parenthesized pointer-to-array
    abstract declarators. *)
let parse_abstract_type st : Types.ty =
  let base = parse_base_type st in
  let rec adecl () : decl_shape =
    if eat_punct st "*" then DPtr (adecl ()) else adirect ()
  and adirect () =
    let inner =
      if
        (match (peek st).tok with PUNCT "(" -> true | _ -> false)
        && match (peek2 st).tok with
           | PUNCT ("*" | "(") -> true
           | _ -> false
      then begin
        expect_punct st "(";
        let d = adecl () in
        expect_punct st ")";
        d
      end
      else DName ""
    in
    let rec suffixes acc =
      if eat_punct st "[" then begin
        let n =
          match (peek st).tok with
          | INTLIT (v, _) ->
            advance st;
            Int64.to_int v
          | _ -> err st "array bounds must be integer literals"
        in
        expect_punct st "]";
        suffixes (n :: acc)
      end
      else List.rev acc
    in
    match suffixes [] with [] -> inner | dims -> DArr (inner, dims)
  in
  snd (apply_shape (adecl ()) base)

(* parse_abstract_type is defined after the declarator machinery. *)

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let binop_of_punct = function
  | "*" -> Some (Mul, 10)
  | "/" -> Some (Div, 10)
  | "%" -> Some (Mod, 10)
  | "+" -> Some (Add, 9)
  | "-" -> Some (Sub, 9)
  | "<<" -> Some (Shl, 8)
  | ">>" -> Some (Shr, 8)
  | "<" -> Some (Lt, 7)
  | ">" -> Some (Gt, 7)
  | "<=" -> Some (Le, 7)
  | ">=" -> Some (Ge, 7)
  | "==" -> Some (Eq, 6)
  | "!=" -> Some (Ne, 6)
  | "&" -> Some (Band, 5)
  | "^" -> Some (Bxor, 4)
  | "|" -> Some (Bor, 3)
  | "&&" -> Some (Land, 2)
  | "||" -> Some (Lor, 1)
  | _ -> None

let as_lval st (e : exp) : lval =
  match e with
  | Lval (_, lv) -> lv
  | _ -> err st "expected an lvalue"

let rec parse_exp st : exp = parse_cond st

and parse_cond st : exp =
  let c = parse_binop st 1 in
  if eat_punct st "?" then begin
    let a = parse_exp st in
    expect_punct st ":";
    let b = parse_cond st in
    Cond (c, a, b)
  end
  else c

and parse_binop st min_prec : exp =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match (peek st).tok with
    | PUNCT p -> (
      match binop_of_punct p with
      | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binop st (prec + 1) in
        lhs := Binop (op, !lhs, rhs)
      | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st : exp =
  match (peek st).tok with
  | PUNCT "-" ->
    advance st;
    Unop (Neg, parse_unary st)
  | PUNCT "!" ->
    advance st;
    Unop (Lognot, parse_unary st)
  | PUNCT "~" ->
    advance st;
    Unop (Bitnot, parse_unary st)
  | PUNCT "+" ->
    advance st;
    parse_unary st
  | PUNCT "*" ->
    advance st;
    let e = parse_unary st in
    Lval (no_aid, Deref e)
  | PUNCT "&" ->
    advance st;
    let e = parse_unary st in
    Addr (as_lval st e)
  | KW "sizeof" ->
    advance st;
    if (match (peek st).tok with PUNCT "(" -> true | _ -> false)
       && (match (peek2 st).tok with
          | KW
              ( "void" | "char" | "short" | "int" | "long" | "unsigned"
              | "float" | "double" | "struct" ) ->
            true
          | _ -> false)
    then begin
      expect_punct st "(";
      let t = parse_abstract_type st in
      expect_punct st ")";
      SizeofType t
    end
    else SizeofExp (parse_unary st)
  | PUNCT "(" when
      (match (peek2 st).tok with
      | KW
          ( "void" | "char" | "short" | "int" | "long" | "unsigned" | "float"
          | "double" | "struct" ) ->
        true
      | _ -> false) ->
    advance st;
    let t = parse_abstract_type st in
    expect_punct st ")";
    Cast (t, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st : exp =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match (peek st).tok with
    | PUNCT "[" ->
      advance st;
      let i = parse_exp st in
      expect_punct st "]";
      (* indexing a non-lvalue (e.g. a parenthesized cast) is pointer
         arithmetic: e[i] == *(e + i) *)
      e :=
        (match !e with
        | Lval (_, lv) -> Lval (no_aid, Index (lv, i))
        | other -> Lval (no_aid, Deref (Binop (Add, other, i))))
    | PUNCT "." ->
      advance st;
      let f = expect_ident st in
      e := Lval (no_aid, Field (as_lval st !e, f))
    | PUNCT "->" ->
      advance st;
      let f = expect_ident st in
      e := Lval (no_aid, Field (Deref !e, f))
    | _ -> continue_ := false
  done;
  !e

and parse_primary st : exp =
  match (peek st).tok with
  | INTLIT (v, ik) ->
    advance st;
    Const (Cint (v, ik))
  | FLOATLIT (f, fk) ->
    advance st;
    Const (Cfloat (f, fk))
  | STRLIT s ->
    advance st;
    Const (Cstr s)
  | IDENT name -> (
    advance st;
    if eat_punct st "(" then begin
      let args = parse_args st in
      Call (name, args)
    end
    else Lval (no_aid, Var name))
  | PUNCT "(" ->
    advance st;
    let e = parse_exp st in
    expect_punct st ")";
    e
  | t -> err st "expected an expression but found %s" (Lexer.show_token t)

and parse_args st : exp list =
  if eat_punct st ")" then []
  else begin
    let rec go acc =
      let e = parse_exp st in
      if eat_punct st "," then go (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_init st : init =
  if eat_punct st "{" then begin
    let items = ref [] in
    let rec go () =
      if eat_punct st "}" then ()
      else begin
        items := parse_init st :: !items;
        if eat_punct st "," then go () else expect_punct st "}"
      end
    in
    go ();
    Ilist (List.rev !items)
  end
  else Iexp (parse_exp st)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Local declarations are hoisted to function scope (C89 style), so a
    function body's parse result is the statement plus collected locals
    and the initialization statements in place. Shadowing within a
    function is rejected rather than renamed. *)
type fun_ctx = { mutable locals : (string * Types.ty) list }

let compound_ops =
  [
    ("+=", Add); ("-=", Sub); ("*=", Mul); ("/=", Div); ("%=", Mod);
    ("&=", Band); ("|=", Bor); ("^=", Bxor); ("<<=", Shl); (">>=", Shr);
  ]

let take_pragma st =
  match (peek st).tok with
  | PRAGMA p when String.length p >= 6 && String.sub p 0 6 = "pragma" ->
    let rest = String.trim (String.sub p 6 (String.length p - 6)) in
    advance st;
    if String.equal rest "parallel" then st.pending_pragma <- true
    else Loc.error (peek st).loc "unknown pragma '%s'" rest
  | _ -> ()

let mark_loop st lid =
  if st.pending_pragma then begin
    st.prog.parallel_loops <- st.prog.parallel_loops @ [ lid ];
    st.pending_pragma <- false
  end

let rec parse_stmt st (ctx : fun_ctx) : stmt =
  take_pragma st;
  let l = loc st in
  match (peek st).tok with
  | PUNCT "{" ->
    advance st;
    let stmts = parse_block_items st ctx in
    mk_stmt ~loc:l (Sseq stmts)
  | PUNCT ";" ->
    advance st;
    mk_stmt ~loc:l Sskip
  | KW "if" ->
    advance st;
    expect_punct st "(";
    let c = parse_exp st in
    expect_punct st ")";
    let then_ = parse_stmt st ctx in
    let else_ = if eat_kw st "else" then parse_stmt st ctx else skip in
    mk_stmt ~loc:l (Sif (c, then_, else_))
  | KW "while" ->
    let pending = st.pending_pragma in
    st.pending_pragma <- false;
    advance st;
    expect_punct st "(";
    let c = parse_exp st in
    expect_punct st ")";
    let lid = fresh_lid st.prog in
    st.pending_pragma <- pending;
    mark_loop st lid;
    let body = parse_stmt st ctx in
    mk_stmt ~loc:l (Swhile (lid, c, body))
  | KW "for" ->
    let pending = st.pending_pragma in
    st.pending_pragma <- false;
    advance st;
    expect_punct st "(";
    let init =
      if (match (peek st).tok with PUNCT ";" -> true | _ -> false) then skip
      else if starts_type st then parse_local_decl st ctx
      else parse_simple st ctx
    in
    expect_punct st ";";
    let cond =
      if (match (peek st).tok with PUNCT ";" -> true | _ -> false) then cone
      else parse_exp st
    in
    expect_punct st ";";
    let step =
      if (match (peek st).tok with PUNCT ")" -> true | _ -> false) then skip
      else parse_simple st ctx
    in
    expect_punct st ")";
    let lid = fresh_lid st.prog in
    st.pending_pragma <- pending;
    mark_loop st lid;
    let body = parse_stmt st ctx in
    mk_stmt ~loc:l (Sfor (lid, init, cond, step, body))
  | KW "return" ->
    advance st;
    let e =
      if (match (peek st).tok with PUNCT ";" -> true | _ -> false) then None
      else Some (parse_exp st)
    in
    expect_punct st ";";
    mk_stmt ~loc:l (Sreturn e)
  | KW "break" ->
    advance st;
    expect_punct st ";";
    mk_stmt ~loc:l Sbreak
  | KW "continue" ->
    advance st;
    expect_punct st ";";
    mk_stmt ~loc:l Scontinue
  | KW "do" -> err st "do/while loops are not supported; use while"
  | _ when starts_type st ->
    let s = parse_local_decl st ctx in
    expect_punct st ";";
    s
  | _ ->
    let s = parse_simple st ctx in
    expect_punct st ";";
    s

and parse_block_items st ctx : stmt list =
  let acc = ref [] in
  while not (eat_punct st "}") do
    (match (peek st).tok with
    | EOF -> err st "unexpected end of input inside a block"
    | _ -> ());
    acc := parse_stmt st ctx :: !acc
  done;
  List.rev !acc

(** [int x = e, *p;] — registers locals and returns init assignments. *)
and parse_local_decl st ctx : stmt =
  let l = loc st in
  let base = parse_base_type st in
  let rec go acc =
    let name, ty = parse_declarator st base in
    if List.mem_assoc name ctx.locals then
      Loc.error l "redeclaration of local '%s' (MiniC forbids shadowing)" name;
    ctx.locals <- ctx.locals @ [ (name, ty) ];
    let acc =
      if eat_punct st "=" then
        if match (peek st).tok with PUNCT "{" -> true | _ -> false then begin
          let ini = parse_init st in
          List.rev_append (init_stmts st l (Var name) ty ini) acc
        end
        else begin
          let e = parse_exp st in
          mk_stmt ~loc:l (Sassign (no_aid, Var name, e)) :: acc
        end
      else acc
    in
    if eat_punct st "," then go acc else List.rev acc
  in
  mk_stmt ~loc:l (Sseq (go []))

(** Desugar a local aggregate initializer into element assignments. *)
and init_stmts st l (lv : lval) (ty : Types.ty) (ini : init) : stmt list =
  match (ty, ini) with
  | Types.Tarray (elt, n), Ilist items ->
    if List.length items > n then
      Loc.error l "too many initializers for array of %d" n;
    List.concat
      (List.mapi
         (fun i item -> init_stmts st l (Index (lv, cint i)) elt item)
         items)
  | Types.Tstruct tag, Ilist items ->
    let c = Types.find_composite st.prog.comps l tag in
    if List.length items > List.length c.Types.cfields then
      Loc.error l "too many initializers for struct %s" tag;
    List.concat
      (List.mapi
         (fun i item ->
           let fname, fty = List.nth c.Types.cfields i in
           init_stmts st l (Field (lv, fname)) fty item)
         items)
  | _, Iexp e -> [ mk_stmt ~loc:l (Sassign (no_aid, lv, e)) ]
  | _, Ilist _ -> Loc.error l "brace initializer for a scalar"

(** Simple statements: assignments, compound assignments, [++]/[--],
    and call statements. *)
and parse_simple st _ctx : stmt =
  let l = loc st in
  match (peek st).tok with
  | PUNCT "++" ->
    advance st;
    let lv = as_lval st (parse_unary st) in
    mk_stmt ~loc:l
      (Sassign (no_aid, lv, Binop (Add, Lval (no_aid, lv), cone)))
  | PUNCT "--" ->
    advance st;
    let lv = as_lval st (parse_unary st) in
    mk_stmt ~loc:l
      (Sassign (no_aid, lv, Binop (Sub, Lval (no_aid, lv), cone)))
  | _ -> (
    let e = parse_unary st in
    match (peek st).tok with
    | PUNCT "=" ->
      advance st;
      let lv = as_lval st e in
      let rhs = parse_exp st in
      mk_stmt ~loc:l (Sassign (no_aid, lv, rhs))
    | PUNCT p when List.mem_assoc p compound_ops ->
      advance st;
      let op = List.assoc p compound_ops in
      let lv = as_lval st e in
      let rhs = parse_exp st in
      mk_stmt ~loc:l
        (Sassign (no_aid, lv, Binop (op, Lval (no_aid, lv), rhs)))
    | PUNCT "++" ->
      advance st;
      let lv = as_lval st e in
      mk_stmt ~loc:l
        (Sassign (no_aid, lv, Binop (Add, Lval (no_aid, lv), cone)))
    | PUNCT "--" ->
      advance st;
      let lv = as_lval st e in
      mk_stmt ~loc:l
        (Sassign (no_aid, lv, Binop (Sub, Lval (no_aid, lv), cone)))
    | _ -> (
      match e with
      | Call (f, args) -> mk_stmt ~loc:l (Scall (None, f, args))
      | _ -> err st "expression statements must be calls or assignments"))

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_struct_def st : Types.composite =
  expect_kw st "struct";
  let tag = expect_ident st in
  expect_punct st "{";
  let fields = ref [] in
  while not (eat_punct st "}") do
    let base = parse_base_type st in
    let rec go () =
      let name, ty = parse_declarator st base in
      fields := (name, ty) :: !fields;
      if eat_punct st "," then go ()
    in
    go ();
    expect_punct st ";"
  done;
  expect_punct st ";";
  { Types.cname = tag; cfields = List.rev !fields }


let parse_params st : (string * Types.ty) list =
  if eat_punct st ")" then []
  else if
    (match (peek st).tok with KW "void" -> true | _ -> false)
    && match (peek2 st).tok with PUNCT ")" -> true | _ -> false
  then begin
    advance st;
    advance st;
    []
  end
  else begin
    let rec go acc =
      let base = parse_base_type st in
      let name, ty = parse_declarator st base in
      (* Array parameters decay to pointers, as in C. *)
      let ty = Types.decay ty in
      if eat_punct st "," then go ((name, ty) :: acc)
      else begin
        expect_punct st ")";
        List.rev ((name, ty) :: acc)
      end
    in
    go []
  end

let parse_topdecl st : unit =
  take_pragma st;
  let l = loc st in
  match (peek st).tok with
  | KW "struct" when (match (peek2 st).tok with IDENT _ -> true | _ -> false)
                     && (match st.toks.(st.pos + 2).tok with
                        | PUNCT "{" -> true
                        | _ -> false) ->
    let c = parse_struct_def st in
    if Hashtbl.mem st.prog.comps c.Types.cname then
      Loc.error l "redefinition of struct '%s'" c.Types.cname;
    Hashtbl.replace st.prog.comps c.Types.cname c;
    st.prog.globals <- st.prog.globals @ [ Gcomposite c ]
  | KW "typedef" -> err st "typedefs are not supported"
  | _ ->
    let base = parse_base_type st in
    let name, ty = parse_declarator st base in
    if eat_punct st "(" then begin
      (* function definition *)
      let formals = parse_params st in
      if eat_punct st ";" then
        (* forward declaration: recorded as a definition-less prototype by
           simply ignoring it; the definition must follow elsewhere. *)
        ()
      else begin
        expect_punct st "{";
        let ctx = { locals = [] } in
        let stmts = parse_block_items st ctx in
        let f =
          {
            fname = name;
            freturn = ty;
            fformals = formals;
            fformal_aids = [];
            flocals = ctx.locals;
            fbody = mk_stmt ~loc:l (Sseq stmts);
          }
        in
        if Option.is_some (find_fun st.prog name) then
          Loc.error l "redefinition of function '%s'" name;
        st.prog.globals <- st.prog.globals @ [ Gfun f ]
      end
    end
    else begin
      (* global variable(s) *)
      let rec go name ty =
        let ini = if eat_punct st "=" then Some (parse_init st) else None in
        if Option.is_some (find_gvar st.prog name) then
          Loc.error l "redefinition of global '%s'" name;
        st.prog.globals <- st.prog.globals @ [ Gvar (name, ty, ini) ];
        if eat_punct st "," then begin
          let name2, ty2 = parse_declarator st base in
          go name2 ty2
        end
        else expect_punct st ";"
      in
      go name ty
    end

(** Parse a complete translation unit. *)
let parse_program ?(file = "<string>") src : program =
  let toks = Lexer.tokenize ~file src in
  let st = { toks; pos = 0; prog = empty_program (); pending_pragma = false } in
  while (peek st).tok <> Lexer.EOF do
    parse_topdecl st
  done;
  st.prog

(** Parse a single expression; used by tests and the REPL-ish examples. *)
let parse_exp_string ?(file = "<string>") src : exp =
  let toks = Lexer.tokenize ~file src in
  let st = { toks; pos = 0; prog = empty_program (); pending_pragma = false } in
  let e = parse_exp st in
  (match (peek st).tok with
  | Lexer.EOF -> ()
  | t -> err st "trailing tokens after expression: %s" (Lexer.show_token t));
  e
