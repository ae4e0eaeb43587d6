(** The general data structure expansion transformation (§3 of the
    paper), applied according to a {!Plan}:

    {b Pass 1 — fat pointers (§3.3.1-3.3.2, Figures 4-6, Table 3).}
    Every promoted pointer grows a shadow span: an extra local/global
    [__span_p] for pointer variables, an extra struct field
    [__span_f] for pointer fields (which enlarges the struct exactly
    like the paper's [struct {pointer; span}] promotion — [sizeof]
    picks the growth up automatically), an extra trailing formal for
    pointer parameters, and a [__retspan_f] global for pointer-returning
    functions. After every assignment that writes a promoted holder, a
    span-maintenance statement is inserted per Table 3.

    {b Pass 2 — expansion and redirection (§3.1, 3.3, Tables 1-2).}
    Every expanded object is replicated [N = __nthreads] times in the
    shared address space: globals and the loop function's locals are
    demoted to heap blocks of [sizeof(T) * N] reached through a new
    pointer [__exp_x] (the paper's global rule; locals use it too
    since MiniC has no VLAs — semantically the same storage with
    explicit free on exit), and expanded allocation sites multiply
    their size by [N]. Accesses are then redirected: an access rooted
    at an expanded variable is rebased to copy [__tid] (private) or
    copy 0 (shared); a private access through a pointer becomes
    [*( (T * )((char * )p + __tid * span) )].

    Generated span accesses {e mirror the verdicts} of the pointer
    accesses they shadow, so a private pointer's span is itself
    privatized. *)

open Minic

let long = Types.Tint Types.ILong
let int_t = Types.Tint Types.IInt
let clong e = Ast.Cast (long, e)

type tctx = {
  plan : Plan.t;
  mutable retspan_funs : (string, unit) Hashtbl.t;
  cache_bases : bool;
      (** optimized mode: hold each expanded variable's redirection
          base ([__exp_x] or [__exp_x + __tid]) in a local pointer,
          computed once per function entry / loop iteration — the
          loop-invariant code motion a real compiler applies to the
          redirection arithmetic *)
  mutable cur_bases : (string, bool * bool) Hashtbl.t;
      (** per function being rewritten: var -> (needs shared base,
          needs private base) *)
  scalar_privates : (string, string) Hashtbl.t;
      (** qualified name -> owning function, for expanded {e scalars}
          whose accesses all live in one function and that are never
          pointed to: these become an OpenMP-style private local
          (register-resident) instead of a heap replica — exactly what
          scalar expansion plus register promotion yields in GCC *)
  span_shrink : int;
      (** fault injection: subtract this many bytes from every span
          used in redirection arithmetic (0 = correct code). A nonzero
          value under-offsets copies so redirected accesses stray into
          a neighbouring copy — exactly the corruption a span guard
          must catch *)
}

let shared_base x = "__sb_" ^ x
let private_base x = "__pb_" ^ x
let private_scalar x = "__prv_" ^ x

let prog ctx = ctx.plan.Plan.prog
let fresh ctx = Ast.fresh_aid (prog ctx)

(** A fresh load whose verdict mirrors [like]. *)
let mirrored_load ctx (like : Ast.aid) (lv : Ast.lval) : Ast.exp =
  let a = fresh ctx in
  Plan.register_verdict ctx.plan a (Plan.verdict ctx.plan like);
  Ast.Lval (a, lv)

let mirrored_store ctx (like : Ast.aid) (lv : Ast.lval) (e : Ast.exp) :
    Ast.stmt =
  let a = fresh ctx in
  Plan.register_verdict ctx.plan a (Plan.verdict ctx.plan like);
  Ast.mk_stmt (Ast.Sassign (a, lv, e))

(** Clone an expression, giving every load a fresh access id that
    mirrors the verdict of the one it copies. *)
let rec clone_exp ctx (e : Ast.exp) : Ast.exp =
  match e with
  | Ast.Const _ | Ast.SizeofType _ -> e
  | Ast.SizeofExp a -> Ast.SizeofExp (clone_exp ctx a)
  | Ast.Lval (aid, lv) -> mirrored_load ctx aid (clone_lval ctx lv)
  | Ast.Addr lv -> Ast.Addr (clone_lval ctx lv)
  | Ast.Unop (op, a) -> Ast.Unop (op, clone_exp ctx a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, clone_exp ctx a, clone_exp ctx b)
  | Ast.Cast (t, a) -> Ast.Cast (t, clone_exp ctx a)
  | Ast.Call (f, args) -> Ast.Call (f, List.map (clone_exp ctx) args)
  | Ast.Cond (c, a, b) ->
    Ast.Cond (clone_exp ctx c, clone_exp ctx a, clone_exp ctx b)

and clone_lval ctx (lv : Ast.lval) : Ast.lval =
  match lv with
  | Ast.Var _ -> lv
  | Ast.Deref e -> Ast.Deref (clone_exp ctx e)
  | Ast.Index (b, i) -> Ast.Index (clone_lval ctx b, clone_exp ctx i)
  | Ast.Field (b, f) -> Ast.Field (clone_lval ctx b, f)

(* ------------------------------------------------------------------ *)
(* Span expressions (Table 3)                                          *)
(* ------------------------------------------------------------------ *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

(** The span-holder lvalue shadowing a promoted pointer holder, if the
    lvalue is a shape we support ([Var p], [lv.f], [a\[i\]]). *)
let span_holder ctx (fe : Typecheck.fenv) (f : Ast.fundef) (lv : Ast.lval) :
    Ast.lval option =
  match lv with
  | Ast.Var p ->
    if Plan.promoted_var ctx.plan (Plan.qualify f p) then
      Some (Ast.Var (Names.span_var p))
    else None
  | Ast.Field (b, fld) -> (
    match Typecheck.lval_ty fe b with
    | Types.Tstruct tag when Plan.promoted_field ctx.plan tag fld ->
      Some (Ast.Field (clone_lval ctx b, Names.span_field fld))
    | _ -> None)
  | Ast.Index (Ast.Var a, i) ->
    if Plan.promoted_var ctx.plan (Plan.qualify f a) then
      Some (Ast.Index (Ast.Var (Names.span_var a), clone_exp ctx i))
    else None
  | _ -> None

(** Table 3: the span of a pointer-valued expression, built against
    pre-expansion names. Every generated load mirrors the verdict of
    the original access it shadows. *)
let rec span_of ctx (fe : Typecheck.fenv) (f : Ast.fundef) (e : Ast.exp) :
    Ast.exp =
  match e with
  | Ast.Cast (_, a) -> span_of ctx fe f a
  | Ast.Const (Ast.Cstr s) -> Ast.cint ~ik:Types.ILong (String.length s + 1)
  | Ast.Const _ -> Ast.cint ~ik:Types.ILong 0
  | Ast.SizeofType _ | Ast.SizeofExp _ -> Ast.cint ~ik:Types.ILong 0
  | Ast.Lval (aid, lv) -> (
    match span_holder ctx fe f lv with
    | Some sh -> mirrored_load ctx aid sh
    | None ->
      (* an unpromoted pointer never targets an expanded object (or we
         cannot shadow its storage: reject if it could) *)
      let targets =
        Alias.Andersen.targets_of_exp ctx.plan.Plan.alias (prog ctx) f e
      in
      if
        Alias.Andersen.LocSet.exists
          (fun l -> Plan.is_expanded_loc ctx.plan l)
          targets
      then
        unsupported
          "pointer loaded from unshadowable storage (%s) may target an \
           expanded object"
          (Pretty.lval_text lv)
      else Ast.cint ~ik:Types.ILong 0)
  | Ast.Addr lv -> span_of_addr ctx fe f lv
  | Ast.Binop ((Ast.Add | Ast.Sub), a, b) ->
    (* pointer arithmetic keeps the base pointer's span *)
    let ta = Types.decay (Typecheck.exp_ty fe a) in
    if Types.is_pointer ta then span_of ctx fe f a else span_of ctx fe f b
  | Ast.Cond (c, a, b) ->
    Ast.Cond (clone_exp ctx c, span_of ctx fe f a, span_of ctx fe f b)
  | Ast.Unop _ | Ast.Binop _ -> Ast.cint ~ik:Types.ILong 0
  | Ast.Call (g, _) -> unsupported "span of unhoisted call to %s" g

(** [p = &lv]: the span is the size of the whole root object
    (Table 3's "address taken" rules use sizeof of the outermost
    structure so that thread-copy strides are whole objects). *)
and span_of_addr ctx (fe : Typecheck.fenv) (f : Ast.fundef) (lv : Ast.lval) :
    Ast.exp =
  match lv with
  | Ast.Var x -> Ast.SizeofType (Typecheck.lval_ty fe (Ast.Var x))
  | Ast.Deref e -> span_of ctx fe f e
  | Ast.Index (b, _) | Ast.Field (b, _) -> span_of_addr ctx fe f b

(* ------------------------------------------------------------------ *)
(* Pass 1: promotion — declarations, span maintenance, call plumbing   *)
(* ------------------------------------------------------------------ *)

(** Formals of [callee] that are promoted, in order. *)
let promoted_formals ctx (callee : Ast.fundef) : (string * Types.ty) list =
  List.filter
    (fun (x, _) ->
      Plan.promoted_var ctx.plan (callee.Ast.fname ^ "::" ^ x))
    callee.Ast.fformals

let returns_promoted ctx (name : string) : bool =
  Hashtbl.mem ctx.retspan_funs name

let is_alloc_name = function
  | "malloc" | "calloc" | "realloc" -> true
  | _ -> false

(** The size expression of an allocation call's arguments. *)
let alloc_size_arg (callee : string) (args : Ast.exp list) : Ast.exp =
  match (callee, args) with
  | "malloc", [ n ] -> n
  | "calloc", [ a; b ] -> Ast.Binop (Ast.Mul, a, b)
  | "realloc", [ _; n ] -> n
  | _ -> invalid_arg "alloc_size_arg"

let rec pass1_stmt ctx fe (f : Ast.fundef) (s : Ast.stmt) : Ast.stmt =
  let loc = s.Ast.sloc in
  match s.Ast.skind with
  | Ast.Sskip | Ast.Sbreak | Ast.Scontinue -> s
  | Ast.Sassign (aid, lv, rhs) -> (
    match span_holder ctx fe f lv with
    | Some sh ->
      let span_rhs = span_of ctx fe f rhs in
      (* p = p + 1 keeps its span; the unoptimized configuration still
         emits the (dead) self-assignment, which §3.4's DSE removes.
         The span precedes the pointer store: its rhs mirrors the
         pointer rhs and must see pre-assignment state (think of the
         paper's fat-struct copy, which reads both source fields
         before writing either destination field) — [p = p->next]
         must take the span from the {e old} node. *)
      let span_stmt = mirrored_store ctx aid sh span_rhs in
      Ast.mk_stmt ~loc (Ast.Sseq [ span_stmt; s ])
    | None ->
      (* storing a possibly-expanded pointer into unshadowable memory
         would lose its span *)
      (if Types.is_pointer (Types.decay (Typecheck.exp_ty fe rhs)) then
         match lv with
         | Ast.Deref _ ->
           let targets =
             Alias.Andersen.targets_of_exp ctx.plan.Plan.alias (prog ctx) f rhs
           in
           if
             Alias.Andersen.LocSet.exists
               (fun l -> Plan.is_expanded_loc ctx.plan l)
               targets
           then
             unsupported
               "a pointer to an expanded object is stored through %s, which \
                has no span shadow"
               (Pretty.lval_text lv)
         | _ -> ());
      s)
  | Ast.Scall (ret, callee, args) -> (
    match Ast.find_fun (prog ctx) callee with
    | Some fd ->
      (* user call: append span arguments for promoted formals *)
      let span_args =
        List.map
          (fun (x, _) ->
            let idx =
              Option.get
                (List.find_index (fun (y, _) -> String.equal x y) fd.Ast.fformals)
            in
            span_of ctx fe f (List.nth args idx))
          (promoted_formals ctx fd)
      in
      let call = Ast.mk_stmt ~loc (Ast.Scall (ret, callee, args @ span_args)) in
      let after =
        match ret with
        | Some (aid, lv) when returns_promoted ctx callee -> (
          match span_holder ctx fe f lv with
          | Some sh ->
            [ mirrored_store ctx aid sh
                (mirrored_load ctx aid (Ast.Var (Names.retspan callee))) ]
          | None -> [])
        | Some (aid, lv) -> (
          (* callee returns an unpromoted pointer: null span *)
          match span_holder ctx fe f lv with
          | Some sh ->
            [ mirrored_store ctx aid sh (Ast.cint ~ik:Types.ILong 0) ]
          | None ->
            ignore aid;
            [])
        | None -> []
      in
      if after = [] && span_args = [] then s
      else Ast.mk_stmt ~loc (Ast.Sseq (call :: after))
    | None when is_alloc_name callee -> (
      match ret with
      | Some (aid, lv) -> (
        match span_holder ctx fe f lv with
        | Some sh ->
          let span_stmt =
            mirrored_store ctx aid sh
              (clong (clone_exp ctx (alloc_size_arg callee args)))
          in
          Ast.mk_stmt ~loc (Ast.Sseq [ s; span_stmt ])
        | None -> s)
      | None -> s)
    | None -> s)
  | Ast.Sseq ss -> Ast.mk_stmt ~loc (Ast.Sseq (List.map (pass1_stmt ctx fe f) ss))
  | Ast.Sif (c, a, b) ->
    Ast.mk_stmt ~loc (Ast.Sif (c, pass1_stmt ctx fe f a, pass1_stmt ctx fe f b))
  | Ast.Swhile (lid, c, body) ->
    Ast.mk_stmt ~loc (Ast.Swhile (lid, c, pass1_stmt ctx fe f body))
  | Ast.Sfor (lid, init, c, step, body) ->
    Ast.mk_stmt ~loc
      (Ast.Sfor
         ( lid,
           pass1_stmt ctx fe f init,
           c,
           pass1_stmt ctx fe f step,
           pass1_stmt ctx fe f body ))
  | Ast.Sreturn (Some e) when returns_promoted ctx f.Ast.fname ->
    let set =
      Ast.mk_stmt ~loc
        (Ast.Sassign (fresh ctx, Ast.Var (Names.retspan f.Ast.fname),
                      span_of ctx fe f e))
    in
    Ast.mk_stmt ~loc (Ast.Sseq [ set; s ])
  | Ast.Sreturn _ -> s

(** Shadow declaration for a promoted variable, mirroring array
    shape. *)
let span_decl_ty (t : Types.ty) : Types.ty =
  match t with
  | Types.Tarray (Types.Tptr _, n) -> Types.Tarray (long, n)
  | _ -> long

let pass1 (ctx : tctx) : unit =
  let p = prog ctx in
  (* decide which functions carry a return span *)
  List.iter
    (fun (f : Ast.fundef) ->
      if Types.is_pointer f.Ast.freturn then begin
        let needs =
          (not ctx.plan.Plan.selective)
          || Alias.Andersen.may_point_into ctx.plan.Plan.alias
               (Alias.Andersen.LRet f.Ast.fname)
               (Plan.expanded_loc_set ctx.plan)
        in
        if needs then Hashtbl.replace ctx.retspan_funs f.Ast.fname ()
      end)
    (Ast.functions p);
  (* promote struct fields: append span fields *)
  let comps_to_update =
    Hashtbl.fold
      (fun tag (c : Types.composite) acc ->
        let extra =
          List.filter_map
            (fun (fld, ft) ->
              if Types.is_pointer ft && Plan.promoted_field ctx.plan tag fld
              then Some (Names.span_field fld, long)
              else None)
            c.Types.cfields
        in
        if extra = [] then acc
        else (tag, { c with Types.cfields = c.Types.cfields @ extra }) :: acc)
      p.Ast.comps []
  in
  List.iter
    (fun (tag, c) ->
      Hashtbl.replace p.Ast.comps tag c;
      p.Ast.globals <-
        List.map
          (function
            | Ast.Gcomposite c0 when String.equal c0.Types.cname tag ->
              Ast.Gcomposite c
            | g -> g)
          p.Ast.globals)
    comps_to_update;
  let env = Typecheck.make_env p in
  (* rewrite every function: add span locals/formals, maintain spans *)
  let new_funs =
    List.map
      (fun (f : Ast.fundef) ->
        let fe = Typecheck.fenv_of env f in
        let span_formals =
          List.map
            (fun (x, _) -> (Names.span_var x, long))
            (promoted_formals ctx f)
        in
        let span_locals =
          List.filter_map
            (fun (x, t) ->
              if Plan.promoted_var ctx.plan (Plan.qualify f x) then
                Some (Names.span_var x, span_decl_ty t)
              else None)
            f.Ast.flocals
        in
        List.iter
          (fun (n, t) -> Hashtbl.replace fe.Typecheck.vars n t)
          (span_formals @ span_locals);
        let body = pass1_stmt ctx fe f f.Ast.fbody in
        {
          f with
          Ast.fformals = f.Ast.fformals @ span_formals;
          fformal_aids =
            f.Ast.fformal_aids @ List.map (fun _ -> fresh ctx) span_formals;
          flocals = f.Ast.flocals @ span_locals;
          fbody = body;
        })
      (Ast.functions p)
  in
  List.iter (Ast.replace_fun p) new_funs;
  (* span globals for promoted globals, and retspan globals *)
  let span_globals =
    List.filter_map
      (fun (x, t, _) ->
        if Plan.promoted_var ctx.plan x then
          Some (Ast.Gvar (Names.span_var x, span_decl_ty t, None))
        else None)
      (Ast.global_vars p)
  in
  let retspan_globals =
    Hashtbl.fold
      (fun fname () acc -> Ast.Gvar (Names.retspan fname, long, None) :: acc)
      ctx.retspan_funs []
  in
  p.Ast.globals <- span_globals @ retspan_globals @ p.Ast.globals;
  (* a promoted pointer that is itself expanded privatizes its span *)
  let extra_expand = ref [] in
  Hashtbl.iter
    (fun q () ->
      if Hashtbl.mem ctx.plan.Plan.expand_vars q then begin
        let fn, x = Plan.unqualify q in
        let sq =
          match fn with
          | Some fn -> fn ^ "::" ^ Names.span_var x
          | None -> Names.span_var x
        in
        extra_expand := sq :: !extra_expand
      end)
    ctx.plan.Plan.promoted_vars;
  List.iter
    (fun q -> Hashtbl.replace ctx.plan.Plan.expand_vars q ())
    !extra_expand

(* ------------------------------------------------------------------ *)
(* Pass 2: expansion and redirection                                   *)
(* ------------------------------------------------------------------ *)

let tid_load ctx : Ast.exp = Ast.Lval (fresh ctx, Ast.Var Names.tid)
let nthreads_load ctx : Ast.exp = Ast.Lval (fresh ctx, Ast.Var Names.nthreads)

(** Fault injection: under-offset a redirection span by
    [ctx.span_shrink] bytes (identity when 0, the normal case). *)
let shrink_span ctx (span : Ast.exp) : Ast.exp =
  if ctx.span_shrink = 0 then span
  else
    Ast.Binop
      ( Ast.Sub,
        span,
        Ast.Const (Ast.Cint (Int64.of_int ctx.span_shrink, Types.ILong)) )

(** Redirect a private pointer-rooted access: Table 2's
    [*(p + tid*span/sizeof( *p ))], realized in byte arithmetic. *)
let private_deref ctx (pointee : Types.ty) (ptr : Ast.exp) (span : Ast.exp) :
    Ast.lval =
  let span = shrink_span ctx span in
  Ast.Deref
    (Ast.Cast
       ( Types.Tptr pointee,
         Ast.Binop
           ( Ast.Add,
             Ast.Cast (Types.Tptr (Types.Tint Types.IChar), ptr),
             Ast.Binop (Ast.Mul, clong (tid_load ctx), span) ) ))

(** Root variable of a pure index chain ([a[i]…[k]]), if any. *)
let rec index_root : Ast.lval -> string option = function
  | Ast.Index (b, _) -> index_root b
  | Ast.Var x -> Some x
  | _ -> None

(** Indices of a pure index chain, outermost dimension first. *)
let rec index_chain acc : Ast.lval -> Ast.exp list = function
  | Ast.Index (b, i) -> index_chain (i :: acc) b
  | _ -> acc

(** Dimensions of a (possibly nested) array of primitive elements;
    [None] for anything the interleaved layout cannot scatter. *)
let rec prim_array_dims : Types.ty -> (int list * Types.ty) option = function
  | Types.Tarray (elt, n) -> (
    match elt with
    | Types.Tint _ | Types.Tfloat _ -> Some ([ n ], elt)
    | _ ->
      Option.map (fun (ds, e) -> (n :: ds, e)) (prim_array_dims elt))
  | _ -> None

let rec rewrite_exp ctx fe (f : Ast.fundef) (e : Ast.exp) : Ast.exp =
  match e with
  | Ast.Const _ | Ast.SizeofType _ -> e
  | Ast.SizeofExp a -> Ast.SizeofExp (rewrite_exp ctx fe f a)
  | Ast.Lval (aid, lv) ->
    Ast.Lval (aid, rewrite_access ctx fe f aid lv)
  | Ast.Addr lv -> Ast.Addr (rewrite_lval ctx fe f `Shared lv)
  | Ast.Unop (op, a) -> Ast.Unop (op, rewrite_exp ctx fe f a)
  | Ast.Binop (op, a, b) ->
    Ast.Binop (op, rewrite_exp ctx fe f a, rewrite_exp ctx fe f b)
  | Ast.Cast (t, a) -> Ast.Cast (t, rewrite_exp ctx fe f a)
  | Ast.Call (g, args) -> Ast.Call (g, List.map (rewrite_exp ctx fe f) args)
  | Ast.Cond (c, a, b) ->
    Ast.Cond
      (rewrite_exp ctx fe f c, rewrite_exp ctx fe f a, rewrite_exp ctx fe f b)

(** Rewrite the lvalue of access [aid]. *)
and rewrite_access ctx fe f (aid : Ast.aid) (lv : Ast.lval) : Ast.lval =
  let mode =
    match Plan.verdict ctx.plan aid with
    | Privatize.Classify.Private -> `Private
    | Privatize.Classify.Shared | Privatize.Classify.Induction -> `Shared
  in
  rewrite_lval ctx fe f mode lv

(** Is [x] eligible for the interleaved layout (Figure 2b): a struct
    of primitive members? The paper prefers the bonded mode partly
    because interleaving "fails to work in some cases in which a data
    structure is recast between different-sized types" — anything else
    (arrays, pointers, heap blocks) is rejected. *)
and interleaved_struct ctx fe (x : string) : (string * Types.composite) option =
  match Typecheck.lval_ty fe (Ast.Var x) with
  | Types.Tstruct tag ->
    let c = Types.find_composite (prog ctx).Ast.comps Loc.dummy tag in
    if
      List.for_all
        (fun (_, ft) ->
          match ft with Types.Tint _ | Types.Tfloat _ -> true | _ -> false)
        c.Types.cfields
    then Some (tag, c)
    else None
  | Types.Tint _ | Types.Tfloat _ ->
    None (* primitive scalars: both layouts coincide; use the bonded path *)
  | _ -> None

(** Rewrite an lvalue; [mode] decides which copy its root addresses. *)
and rewrite_lval ctx fe f (mode : [ `Private | `Shared ]) (lv : Ast.lval) :
    Ast.lval =
  match lv with
  | Ast.Field (Ast.Var x, fld)
    when ctx.plan.Plan.mode = Plan.Interleaved
         && Plan.expanded_var ctx.plan (Plan.qualify f x)
         && not (Hashtbl.mem ctx.scalar_privates (Plan.qualify f x)) -> (
    (* Figure 2(b): member [fld]'s N copies are consecutive; distinct
       members are N*sizeof(member) apart. Address:
       base + offset(fld)*N + tid*sizeof(fld). *)
    match interleaved_struct ctx fe x with
    | Some (tag, _) ->
      let off, fty = Types.field_offset (prog ctx).Ast.comps Loc.dummy tag fld in
      let fsz = Types.sizeof (prog ctx).Ast.comps Loc.dummy fty in
      let base =
        Ast.Cast
          (Types.Tptr (Types.Tint Types.IChar),
           Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)))
      in
      let member_base =
        Ast.Binop
          (Ast.Add, base,
           Ast.Binop (Ast.Mul, Ast.cint ~ik:Types.ILong off,
                      clong (nthreads_load ctx)))
      in
      let addr =
        match mode with
        | `Shared -> member_base
        | `Private ->
          Ast.Binop
            (Ast.Add, member_base,
             Ast.Binop (Ast.Mul, clong (tid_load ctx),
                        Ast.cint ~ik:Types.ILong fsz))
      in
      Ast.Deref (Ast.Cast (Types.Tptr fty, addr))
    | None ->
      unsupported
        "interleaved mode cannot lay out '%s' (only structs of primitive          members interleave; the paper's bonded mode handles the rest)"
        x)
  | Ast.Var x
    when ctx.plan.Plan.mode = Plan.Interleaved
         && Plan.expanded_var ctx.plan (Plan.qualify f x)
         && (not (Hashtbl.mem ctx.scalar_privates (Plan.qualify f x)))
         && (Option.is_some (interleaved_struct ctx fe x)
            || Option.is_some
                 (prim_array_dims (Typecheck.lval_ty fe (Ast.Var x)))) ->
    unsupported
      "interleaved mode cannot take a whole-structure view of '%s' (its        members are not adjacent); use the bonded mode"
      x
  | Ast.Var x when Hashtbl.mem ctx.scalar_privates (Plan.qualify f x) -> (
    match mode with
    | `Private -> Ast.Var (private_scalar x)
    | `Shared -> lv)
  | Ast.Var x ->
    if Plan.expanded_var ctx.plan (Plan.qualify f x) then begin
      if ctx.cache_bases then begin
        let s, p =
          Option.value ~default:(false, false)
            (Hashtbl.find_opt ctx.cur_bases x)
        in
        match mode with
        | `Private ->
          Hashtbl.replace ctx.cur_bases x (s, true);
          Ast.Deref (Ast.Lval (fresh ctx, Ast.Var (private_base x)))
        | `Shared ->
          Hashtbl.replace ctx.cur_bases x (true, p);
          Ast.Deref (Ast.Lval (fresh ctx, Ast.Var (shared_base x)))
      end
      else begin
        (* unoptimized: the mechanical Table 2 form, byte arithmetic
           through the span (here statically sizeof) with no
           loop-invariant hoisting *)
        let base = Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)) in
        match mode with
        | `Private ->
          let t = Typecheck.lval_ty fe (Ast.Var x) in
          Ast.Deref
            (Ast.Cast
               ( Types.Tptr t,
                 Ast.Binop
                   ( Ast.Add,
                     Ast.Cast (Types.Tptr (Types.Tint Types.IChar), base),
                     Ast.Binop
                       ( Ast.Mul,
                         clong (tid_load ctx),
                         shrink_span ctx (Ast.SizeofType t) ) ) ))
        | `Shared -> Ast.Deref base
      end
    end
    else lv
  | Ast.Deref e -> (
    let pointee = Typecheck.lval_ty fe lv in
    let needs_redirect =
      mode = `Private
      && Alias.Andersen.LocSet.exists
           (fun l -> Plan.is_expanded_loc ctx.plan l)
           (Alias.Andersen.targets_of_exp ctx.plan.Plan.alias (prog ctx) f e)
    in
    if needs_redirect && ctx.plan.Plan.mode = Plan.Interleaved then
      unsupported
        "interleaved mode cannot redirect pointer-based accesses (the          recast/ambiguity cases of §3.1); use the bonded mode";
    if needs_redirect then begin
      (* span built against pre-expansion names, then itself rewritten *)
      let span = span_of ctx fe f e in
      let span = rewrite_exp ctx fe f span in
      let ptr = rewrite_exp ctx fe f e in
      private_deref ctx pointee ptr span
    end
    else Ast.Deref (rewrite_exp ctx fe f e))
  | Ast.Index _
    when ctx.plan.Plan.mode = Plan.Interleaved
         && (match index_root lv with
            | Some x ->
              Plan.expanded_var ctx.plan (Plan.qualify f x)
              && not (Hashtbl.mem ctx.scalar_privates (Plan.qualify f x))
            | None -> false) -> (
    let x = Option.get (index_root lv) in
    let indices = index_chain [] lv in
    match prim_array_dims (Typecheck.lval_ty fe (Ast.Var x)) with
    | Some (dims, elt) when List.length dims = List.length indices ->
      (* Figure 2(b) generalized to arrays: the N copies of each
         element sit adjacent, successive elements N*sizeof(elt)
         apart — base + (linear*N + tid)*sizeof(elt). This is the
         layout whose false sharing the heatmap ablation measures. *)
      let esz = Types.sizeof (prog ctx).Ast.comps Loc.dummy elt in
      let strides =
        (* per-dimension stride in elements *)
        let rec go = function
          | [] -> []
          | _ :: rest -> List.fold_left ( * ) 1 rest :: go rest
        in
        go dims
      in
      let linear =
        List.fold_left2
          (fun acc i stride ->
            let i = clong (rewrite_exp ctx fe f i) in
            let term =
              if stride = 1 then i
              else
                Ast.Binop (Ast.Mul, i, Ast.cint ~ik:Types.ILong stride)
            in
            match acc with
            | None -> Some term
            | Some a -> Some (Ast.Binop (Ast.Add, a, term)))
          None indices strides
        |> Option.get
      in
      let slot =
        let scaled = Ast.Binop (Ast.Mul, linear, clong (nthreads_load ctx)) in
        match mode with
        | `Shared -> scaled
        | `Private -> Ast.Binop (Ast.Add, scaled, clong (tid_load ctx))
      in
      let base =
        Ast.Cast
          ( Types.Tptr (Types.Tint Types.IChar),
            Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)) )
      in
      Ast.Deref
        (Ast.Cast
           ( Types.Tptr elt,
             Ast.Binop
               ( Ast.Add,
                 base,
                 Ast.Binop (Ast.Mul, slot, Ast.cint ~ik:Types.ILong esz) ) ))
    | _ ->
      unsupported
        "interleaved mode cannot lay out this view of '%s' (only          full-depth element accesses of primitive arrays interleave)"
        x)
  | Ast.Index (b, i) ->
    Ast.Index (rewrite_lval ctx fe f mode b, rewrite_exp ctx fe f i)
  | Ast.Field (b, fld) -> Ast.Field (rewrite_lval ctx fe f mode b, fld)

let rec rewrite_stmt ctx fe (f : Ast.fundef) (s : Ast.stmt) : Ast.stmt =
  let loc = s.Ast.sloc in
  match s.Ast.skind with
  | Ast.Sskip | Ast.Sbreak | Ast.Scontinue -> s
  | Ast.Sassign (aid, lv, e) ->
    Ast.mk_stmt ~loc
      (Ast.Sassign
         (aid, rewrite_access ctx fe f aid lv, rewrite_exp ctx fe f e))
  | Ast.Scall (ret, callee, args) ->
    let args = List.map (rewrite_exp ctx fe f) args in
    (if
       ctx.plan.Plan.mode = Plan.Interleaved
       && Plan.expanded_alloc ctx.plan
            (match ret with Some (a, _) -> a | None -> -1)
     then
       unsupported
         "interleaved mode cannot expand heap allocations (element layout           is unknown to the compiler, cf. the zptr recast argument)");
    let args =
      if Plan.expanded_alloc ctx.plan (match ret with Some (a, _) -> a | None -> -1)
      then
        match (callee, args) with
        | "malloc", [ n ] ->
          [ Ast.Binop (Ast.Mul, n, clong (nthreads_load ctx)) ]
        | "calloc", [ a; b ] ->
          [ Ast.Binop (Ast.Mul, a, clong (nthreads_load ctx)); b ]
        | "realloc", [ p; n ] ->
          [ p; Ast.Binop (Ast.Mul, n, clong (nthreads_load ctx)) ]
        | _ -> args
      else args
    in
    let ret =
      Option.map (fun (aid, lv) -> (aid, rewrite_access ctx fe f aid lv)) ret
    in
    Ast.mk_stmt ~loc (Ast.Scall (ret, callee, args))
  | Ast.Sseq ss ->
    Ast.mk_stmt ~loc (Ast.Sseq (List.map (rewrite_stmt ctx fe f) ss))
  | Ast.Sif (c, a, b) ->
    Ast.mk_stmt ~loc
      (Ast.Sif
         (rewrite_exp ctx fe f c, rewrite_stmt ctx fe f a,
          rewrite_stmt ctx fe f b))
  | Ast.Swhile (lid, c, body) ->
    Ast.mk_stmt ~loc
      (Ast.Swhile (lid, rewrite_exp ctx fe f c, rewrite_stmt ctx fe f body))
  | Ast.Sfor (lid, init, c, step, body) ->
    Ast.mk_stmt ~loc
      (Ast.Sfor
         ( lid,
           rewrite_stmt ctx fe f init,
           rewrite_exp ctx fe f c,
           rewrite_stmt ctx fe f step,
           rewrite_stmt ctx fe f body ))
  | Ast.Sreturn e ->
    Ast.mk_stmt ~loc (Ast.Sreturn (Option.map (rewrite_exp ctx fe f) e))

(** Expanded locals of a function, with their original types. *)
let expanded_locals ctx (f : Ast.fundef) : (string * Types.ty) list =
  List.filter
    (fun (x, _) -> Plan.expanded_var ctx.plan (f.Ast.fname ^ "::" ^ x))
    f.Ast.flocals

(** Entry allocations / exit frees for a function's expanded locals,
    and the declaration replacement (Table 1, applied via the heap
    rule since MiniC has no variable-length arrays). *)
let heapify_locals ctx (f : Ast.fundef) : Ast.fundef =
  let exps = expanded_locals ctx f in
  if exps = [] then f
  else begin
    let allocs =
      List.map
        (fun (x, t) ->
          let aid = fresh ctx in
          Hashtbl.replace ctx.plan.Plan.generated_allocs aid ();
          Ast.mk_stmt
            (Ast.Scall
               ( Some (aid, Ast.Var (Names.exp_var x)),
                 "malloc",
                 [
                   Ast.Binop
                     (Ast.Mul, Ast.SizeofType t, clong (nthreads_load ctx));
                 ] )))
        exps
    in
    let frees () =
      List.map
        (fun (x, _) ->
          Ast.mk_stmt
            (Ast.Scall
               (None, "free", [ Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)) ])))
        exps
    in
    (* free before each return, evaluating the return value first *)
    let ret_tmp = ref None in
    let get_ret_tmp () =
      match !ret_tmp with
      | Some t -> t
      | None ->
        let t = Ast.fresh_var (prog ctx) "ret" in
        ret_tmp := Some t;
        t
    in
    let rec fix (s : Ast.stmt) : Ast.stmt =
      match s.Ast.skind with
      | Ast.Sreturn (Some e) ->
        let t = get_ret_tmp () in
        Ast.mk_stmt ~loc:s.Ast.sloc
          (Ast.Sseq
             (Ast.mk_stmt (Ast.Sassign (fresh ctx, Ast.Var t, e))
              :: frees ()
             @ [ Ast.mk_stmt (Ast.Sreturn (Some (Ast.Lval (fresh ctx, Ast.Var t)))) ]))
      | Ast.Sreturn None ->
        Ast.mk_stmt ~loc:s.Ast.sloc
          (Ast.Sseq (frees () @ [ Ast.mk_stmt (Ast.Sreturn None) ]))
      | Ast.Sseq ss -> Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sseq (List.map fix ss))
      | Ast.Sif (c, a, b) ->
        Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sif (c, fix a, fix b))
      | Ast.Swhile (lid, c, body) ->
        Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Swhile (lid, c, fix body))
      | Ast.Sfor (lid, init, c, step, body) ->
        Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sfor (lid, init, c, step, fix body))
      | _ -> s
    in
    let body = fix f.Ast.fbody in
    (* fall-through exit also frees *)
    let body = Ast.mk_stmt (Ast.Sseq (allocs @ [ body ] @ frees ())) in
    let locals =
      List.filter_map
        (fun (x, t) ->
          if List.mem_assoc x exps then None else Some (x, t))
        f.Ast.flocals
      @ List.map (fun (x, t) -> (Names.exp_var x, Types.Tptr t)) exps
      @
      match !ret_tmp with
      | Some t -> [ (t, f.Ast.freturn) ]
      | None -> []
    in
    { f with Ast.flocals = locals; fbody = body }
  end

(** Element-wise stores realizing a global initializer into copy 0 of
    its heap conversion. *)
let rec init_stores ctx (root : Ast.lval) (t : Types.ty) (ini : Ast.init) :
    Ast.stmt list =
  match (t, ini) with
  | Types.Tarray (elt, _), Ast.Ilist items ->
    List.concat
      (List.mapi
         (fun i item ->
           init_stores ctx (Ast.Index (root, Ast.cint i)) elt item)
         items)
  | Types.Tstruct tag, Ast.Ilist items ->
    let c = Types.find_composite (prog ctx).Ast.comps Loc.dummy tag in
    List.concat
      (List.mapi
         (fun i item ->
           let fld, ft = List.nth c.Types.cfields i in
           init_stores ctx (Ast.Field (root, fld)) ft item)
         items)
  | _, Ast.Iexp e -> [ Ast.mk_stmt (Ast.Sassign (fresh ctx, root, e)) ]
  | _, Ast.Ilist _ -> unsupported "initializer shape for expanded global"

(** Decide which expanded variables become OpenMP-style private locals
    instead of heap replicas: scalars whose accesses all live in a
    single function and that no pointer may target. Such a variable's
    private accesses never leak values across iterations (Definition 5
    guarantees write-before-read), so a per-thread local — which a real
    compiler keeps in a register — is observationally equivalent to the
    tid-th heap copy. The shared copy stays in the original storage. *)
let compute_scalar_privates (ctx : tctx) : unit =
  let p = prog ctx in
  let pointed = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ set ->
      Alias.Andersen.LocSet.iter
        (function
          | Alias.Andersen.LVar q -> Hashtbl.replace pointed q ()
          | _ -> ())
        set)
    ctx.plan.Plan.alias.Alias.Andersen.pts;
  let owners : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.fundef) ->
      List.iter
        (fun (a : Visit.access) ->
          let rec root = function
            | Ast.Var x -> Some x
            | Ast.Deref _ -> None
            | Ast.Index (b, _) | Ast.Field (b, _) -> root b
          in
          match root a.Visit.acc_lval with
          | Some x ->
            let q = Plan.qualify f x in
            let fns = Option.value ~default:[] (Hashtbl.find_opt owners q) in
            if not (List.mem f.Ast.fname fns) then
              Hashtbl.replace owners q (f.Ast.fname :: fns)
          | None -> ())
        (Visit.accesses_of_fun f))
    (Ast.functions p);
  let candidates = Hashtbl.fold (fun q () acc -> q :: acc) ctx.plan.Plan.expand_vars [] in
  List.iter
    (fun q ->
      let fn_opt, x = Plan.unqualify q in
      let ty =
        match fn_opt with
        | Some fn -> (
          match Ast.find_fun p fn with
          | Some f -> List.assoc_opt x f.Ast.flocals
          | None -> None)
        | None -> Option.map fst (Ast.find_gvar p x)
      in
      match (ty, Hashtbl.find_opt owners q) with
      | Some t, Some [ owner ]
        when Types.is_scalar (Types.decay t)
             && (match t with Types.Tarray _ -> false | _ -> true)
             && (not (Hashtbl.mem pointed q))
             && (match fn_opt with Some fn -> String.equal fn owner | None -> true)
        ->
        Hashtbl.replace ctx.scalar_privates q owner;
        Hashtbl.remove ctx.plan.Plan.expand_vars q
      | _ -> ())
    candidates

(** The type of an expanded variable [x] as visible in function [f]
    (pre-replacement declarations are still in place during pass 2). *)
let expanded_var_ty (p : Ast.program) (f : Ast.fundef) (x : string) : Types.ty =
  match List.assoc_opt x f.Ast.flocals with
  | Some t -> t
  | None -> (
    match Ast.find_gvar p x with
    | Some (t, _) -> t
    | None -> invalid_arg ("expanded_var_ty: " ^ x))

let pass2 (ctx : tctx) : unit =
  let p = prog ctx in
  compute_scalar_privates ctx;
  let env = Typecheck.make_env p in
  let target_lids =
    List.map
      (fun (a : Privatize.Analyze.result) ->
        a.Privatize.Analyze.profile.Depgraph.Profiler.graph.Depgraph.Graph.loop)
      ctx.plan.Plan.analyses
  in
  (* rewrite all function bodies, then heapify expanded locals *)
  let new_funs =
    List.map
      (fun (f : Ast.fundef) ->
        let fe = Typecheck.fenv_of env f in
        ctx.cur_bases <- Hashtbl.create 8;
        let body = rewrite_stmt ctx fe f f.Ast.fbody in
        let bases =
          Hashtbl.fold (fun x (s, pr) acc -> (x, s, pr) :: acc) ctx.cur_bases []
          |> List.sort compare
        in
        let base_locals =
          List.concat_map
            (fun (x, s, pr) ->
              let t = Types.Tptr (expanded_var_ty p f x) in
              (if s then [ (shared_base x, t) ] else [])
              @ if pr then [ (private_base x, t) ] else [])
            bases
        in
        let compute ~with_shared () =
          List.concat_map
            (fun (x, s, pr) ->
              let holder () = Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)) in
              (if s && with_shared then
                 [
                   Ast.mk_stmt
                     (Ast.Sassign (fresh ctx, Ast.Var (shared_base x), holder ()));
                 ]
               else [])
              @
              if pr then
                let t = expanded_var_ty p f x in
                let rhs =
                  if ctx.span_shrink = 0 then
                    Ast.Binop (Ast.Add, holder (), tid_load ctx)
                  else
                    (* injected fault: recompute the base in byte
                       arithmetic through the truncated span *)
                    Ast.Cast
                      ( Types.Tptr t,
                        Ast.Binop
                          ( Ast.Add,
                            Ast.Cast
                              (Types.Tptr (Types.Tint Types.IChar), holder ()),
                            Ast.Binop
                              ( Ast.Mul,
                                clong (tid_load ctx),
                                shrink_span ctx (Ast.SizeofType t) ) ) )
                in
                [
                  Ast.mk_stmt
                    (Ast.Sassign (fresh ctx, Ast.Var (private_base x), rhs));
                ]
              else [])
            bases
        in
        (* refresh private bases at the top of each target loop's body
           (the scheduler changes __tid between iterations there) *)
        let rec refresh (s : Ast.stmt) : Ast.stmt =
          match s.Ast.skind with
          | Ast.Swhile (lid, c, body) when List.mem lid target_lids ->
            let body = refresh body in
            {
              s with
              Ast.skind =
                Ast.Swhile
                  (lid, c, Ast.mk_stmt (Ast.Sseq (compute ~with_shared:false () @ [ body ])));
            }
          | Ast.Sfor (lid, init, c, step, body) when List.mem lid target_lids ->
            let body = refresh body in
            {
              s with
              Ast.skind =
                Ast.Sfor
                  ( lid,
                    init,
                    c,
                    step,
                    Ast.mk_stmt (Ast.Sseq (compute ~with_shared:false () @ [ body ])) );
            }
          | Ast.Sseq ss -> { s with Ast.skind = Ast.Sseq (List.map refresh ss) }
          | Ast.Sif (c, a, b) ->
            { s with Ast.skind = Ast.Sif (c, refresh a, refresh b) }
          | Ast.Swhile (lid, c, body) ->
            { s with Ast.skind = Ast.Swhile (lid, c, refresh body) }
          | Ast.Sfor (lid, init, c, step, body) ->
            { s with Ast.skind = Ast.Sfor (lid, init, c, step, refresh body) }
          | _ -> s
        in
        let body = if bases = [] then body else refresh body in
        (* per-thread scalar privates owned by this function *)
        let prv_locals =
          Hashtbl.fold
            (fun q owner acc ->
              if String.equal owner f.Ast.fname then begin
                let fn_opt, x = Plan.unqualify q in
                let ty =
                  match fn_opt with
                  | Some _ -> List.assoc x f.Ast.flocals
                  | None -> fst (Option.get (Ast.find_gvar p x))
                in
                (private_scalar x, ty) :: acc
              end
              else acc)
            ctx.scalar_privates []
        in
        let f = { f with Ast.flocals = f.Ast.flocals @ prv_locals } in
        let n_heap_locals = List.length (expanded_locals ctx f) in
        let f = heapify_locals ctx { f with Ast.fbody = body } in
        (* entry computation goes after heapify's allocations *)
        if bases = [] then f
        else
          {
            f with
            Ast.flocals = f.Ast.flocals @ base_locals;
            fbody =
              Ast.mk_stmt
                (Ast.Sseq
                   (match f.Ast.fbody.Ast.skind with
                   | Ast.Sseq allocs_and_body when n_heap_locals > 0 -> (
                     (* heapify produced [allocs @ body @ frees]; the
                        base computation must follow the allocations *)
                     let rec split i rest =
                       match (i, rest) with
                       | 0, rest -> ([], rest)
                       | i, x :: rest ->
                         let a, b = split (i - 1) rest in
                         (x :: a, b)
                       | _, [] -> ([], [])
                     in
                     match split n_heap_locals allocs_and_body with
                     | allocs, rest ->
                       allocs @ compute ~with_shared:true () @ rest)
                   | _ -> compute ~with_shared:true () @ [ f.Ast.fbody ]));
          })
      (Ast.functions p)
  in
  List.iter (Ast.replace_fun p) new_funs;
  (* expanded globals: demote to heap pointers, build __exp_init *)
  let exp_globals =
    List.filter
      (fun (x, _, _) -> Plan.expanded_var ctx.plan x)
      (Ast.global_vars p)
  in
  let init_body =
    (* default thread count *)
    Ast.mk_stmt
      (Ast.Sif
         ( Ast.Binop (Ast.Lt, nthreads_load ctx, Ast.cone),
           Ast.mk_stmt (Ast.Sassign (fresh ctx, Ast.Var Names.nthreads, Ast.cone)),
           Ast.skip ))
    ::
    List.concat_map
      (fun (x, t, ini) ->
        let alloc =
          let aid = fresh ctx in
          Hashtbl.replace ctx.plan.Plan.generated_allocs aid ();
          Ast.mk_stmt
            (Ast.Scall
               ( Some (aid, Ast.Var (Names.exp_var x)),
                 "malloc",
                 [
                   Ast.Binop
                     (Ast.Mul, Ast.SizeofType t, clong (nthreads_load ctx));
                 ] ))
        in
        let root =
          Ast.Deref (Ast.Lval (fresh ctx, Ast.Var (Names.exp_var x)))
        in
        let stores =
          match ini with
          | None -> []
          | Some (Ast.Iexp e) ->
            [ Ast.mk_stmt (Ast.Sassign (fresh ctx, root, e)) ]
          | Some ini -> init_stores ctx root t ini
        in
        alloc :: stores)
      exp_globals
  in
  let init_fun =
    {
      Ast.fname = Names.init_fun;
      freturn = Types.Tvoid;
      fformals = [];
      fformal_aids = [];
      flocals = [];
      fbody = Ast.mk_stmt (Ast.Sseq init_body);
    }
  in
  (* replace expanded global declarations *)
  p.Ast.globals <-
    Ast.Gvar (Names.tid, int_t, None)
    :: Ast.Gvar (Names.nthreads, int_t, None)
    :: List.concat_map
         (fun g ->
           match g with
           | Ast.Gvar (x, t, _) when Plan.expanded_var ctx.plan x ->
             [ Ast.Gvar (Names.exp_var x, Types.Tptr t, None) ]
           | g -> [ g ])
         p.Ast.globals
    @ [ Ast.Gfun init_fun ];
  (* main calls the initializer first *)
  match Ast.find_fun p "main" with
  | None -> unsupported "program has no main"
  | Some main ->
    let body =
      Ast.mk_stmt
        (Ast.Sseq
           [ Ast.mk_stmt (Ast.Scall (None, Names.init_fun, [])); main.Ast.fbody ])
    in
    Ast.replace_fun p { main with Ast.fbody = body }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  plan : Plan.t;
  transformed : Ast.program;
  privatized : int;  (** Table 5's count of privatized data structures *)
  opt_stats : Optim.Spanopt.stats option;
      (** §3.4 statistics when the optimized pipeline ran *)
}

(** Expand [orig] for the analyzed loops. The result reads the runtime
    globals [__nthreads] (set before [main] runs; defaults to 1) and
    [__tid] (set by the parallel scheduler between iterations; 0 means
    the shared copy, so plain sequential execution is unchanged). *)
let is_span_name (x : string) : bool =
  let has_prefix p =
    String.length x >= String.length p && String.sub x 0 (String.length p) = p
  in
  has_prefix "__span_" || has_prefix "__retspan_"

let expand_loops ?(mode = Plan.Bonded) ?(selective = true)
    ?(optimize = true) ?(span_shrink = 0) (orig : Ast.program)
    (analyses : Privatize.Analyze.result list) : result =
  let plan =
    Telemetry.Span.wall "phase.plan" (fun () ->
        Plan.make ~mode ~selective orig analyses)
  in
  Telemetry.Span.wall "phase.expand" @@ fun () ->
  let ctx =
    {
      plan;
      retspan_funs = Hashtbl.create 8;
      cache_bases = optimize;
      cur_bases = Hashtbl.create 8;
      scalar_privates = Hashtbl.create 8;
      span_shrink;
    }
  in
  pass1 ctx;
  pass2 ctx;
  (* §3.4 overhead reduction over the span shadows *)
  let opt_stats =
    if optimize then
      Some (Optim.Spanopt.optimize plan.Plan.prog ~is_candidate:is_span_name)
    else None
  in
  (* validate the transformed program; this also normalizes the new
     statement nesting introduced by the rewriting *)
  Typecheck.check plan.Plan.prog;
  Telemetry.Span.count "expand.privatized" (Plan.privatized_count plan);
  if Telemetry.Sink.enabled () then
    List.iter
      (fun (lc : Plan.layout_choice) ->
        Telemetry.Span.count ("plan.layout." ^ Plan.mode_name lc.Plan.lc_mode)
          1;
        if lc.Plan.lc_interleavable then
          Telemetry.Span.count "plan.layout.interleavable" 1)
      (Plan.layout plan);
  (match opt_stats with
  | Some st ->
    Telemetry.Span.count "expand.spanopt.self_assigns_removed"
      st.Optim.Spanopt.self_assigns_removed;
    Telemetry.Span.count "expand.spanopt.dead_stores_removed"
      st.Optim.Spanopt.dead_stores_removed;
    Telemetry.Span.count "expand.spanopt.loads_propagated"
      st.Optim.Spanopt.loads_propagated
  | None -> ());
  {
    plan;
    transformed = plan.Plan.prog;
    privatized = Plan.privatized_count plan;
    opt_stats;
  }

let expand ?mode ?selective ?optimize ?span_shrink (orig : Ast.program)
    (analysis : Privatize.Analyze.result) : result =
  expand_loops ?mode ?selective ?optimize ?span_shrink orig [ analysis ]
