(** The MiniC abstract machine.

    Programs are compiled once into OCaml closures (an order of
    magnitude faster than AST walking, which matters because the
    evaluation re-runs every benchmark under many configurations). The
    machine is deterministic and instrumented:

    - every dynamic memory access reports (access id, kind, address,
      size) to an optional {e observer} — the dependence profiler;
    - every access may be surcharged by an optional {e access-cost}
      hook — the cache model of the parallel simulator;
    - every loop reports enter / iteration / exit events to an optional
      {e loop hook} — the parallel simulator's scheduler;
    - cycle and instruction-class counters implement the cost model.

    Each expression is compiled by its static type, so values need no
    tag and most need no box: [char]/[short]/[int] and pointer
    expressions become [unit -> int] closures returning an immediate,
    sign-extended OCaml int; conditions become [unit -> bool];
    [float]/[double] expressions become [unit -> unit] closures that
    leave their value in a flat float cell allocated at load time
    (destination-passing style); [long] expressions return one [int64]
    box per value. An operation charges its cycles before it evaluates
    its operands, and evaluates them in the order the cost model has
    always seen (right before left, except that pointer arithmetic
    evaluates the scaled integer first), because DOACROSS post/wait
    positions are cycle offsets within an iteration.

    All of C that the frontend accepts is supported; the interesting
    cases are byte-accurate struct layout, pointer arithmetic with
    scaling, 32-bit wraparound on [int] arithmetic, and type recasting
    through memory (bzip2's short/int [zptr] idiom). *)

open Minic

type stats = {
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_arith : int;
  mutable n_branches : int;
  mutable n_calls : int;
  mutable n_allocs : int;
}

let empty_stats () =
  {
    n_loads = 0;
    n_stores = 0;
    n_arith = 0;
    n_branches = 0;
    n_calls = 0;
    n_allocs = 0;
  }

type loop_event = Enter | Iter | Exit

type state = {
  mem : Memory.t;
  out : Buffer.t;
  global_addrs : (string, int) Hashtbl.t;
  stack_base : int;
  stack_limit : int;
  mutable sp : int;  (** next free stack byte *)
  mutable frame : int;  (** current frame base *)
  mutable cycles : int;
  stats : stats;
  mutable observer : (Ast.aid -> Visit.access_kind -> int -> int -> unit) option;
  mutable access_extra : (Visit.access_kind -> int -> int -> int) option;
  mutable loop_hook : (Ast.lid -> loop_event -> int -> unit) option;
  mutable free_hook : (int -> int -> unit) option;
      (** (base, size) on free/realloc: a freed block's bytes carry no
          dependences into their next allocation (a thread-safe
          allocator hands parallel threads distinct blocks), so the
          dependence profiler clears their shadow state *)
  mutable alloc_hook : (Ast.aid option -> int -> int -> unit) option;
      (** (ret-store aid, base, requested size) after malloc / calloc /
          realloc; the aid is that of the call's return-value store,
          [None] when the result is discarded. Span guards use it to
          recognise expanded blocks by their allocation site *)
  mutable rand_state : int64;
  mutable fuel : int;  (** decremented per loop iteration and call *)
  mutable iter_skip : bool;
      (** when set by a loop hook at [Iter], the body of that
          iteration is skipped (condition and step still run); the
          domain executor uses this to walk a distributed loop's
          traversal while executing only the iterations it owns *)
  mutable bulk_hook : (int -> int option -> int -> unit) option;
      (** (dst, src, len) after a bulk byte move: memset (src = None),
          memcpy and the copying half of realloc. Complements
          [observer], which only sees scalar accesses *)
  mutable read_hook : (int -> int -> unit) option;
      (** (addr, len) after a builtin reads a C string, terminator
          included: strlen, puts and printf's format and [%s]
          arguments. Builtins have no access id, so the observer never
          sees these reads *)
}

exception Runtime_error of string
exception Exit_program of int

let runtime_error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

exception Break_exc
exception Continue_exc

(* A returning function leaves its value in the machine's return slot
   (see [ret_slot]) before raising, so the exception carries nothing. *)
exception Return_exc

(* ------------------------------------------------------------------ *)
(* Value helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** Sign-extending truncation to the width of an integer kind; MiniC
    [int] arithmetic wraps at 32 bits like the C it models. *)
let trunc_ikind (ik : Types.ikind) (v : int64) : int64 =
  match ik with
  | Types.ILong -> v
  | Types.IInt -> Int64.shift_right (Int64.shift_left v 32) 32
  | Types.IShort -> Int64.shift_right (Int64.shift_left v 48) 48
  | Types.IChar -> Int64.shift_right (Int64.shift_left v 56) 56

(* The same on immediate (63-bit) ints. *)
let sext32 v = (v lsl 31) asr 31
let sext16 v = (v lsl 47) asr 47
let sext8 v = (v lsl 55) asr 55

let round_float_kind (fk : Types.fkind) (f : float) : float =
  match fk with
  | Types.FDouble -> f
  | Types.FFloat -> Int32.float_of_bits (Int32.bits_of_float f)

(* Floating-point values live in flat cells (see [compile_float]); a
   float passed to or returned from a closure would be boxed. *)
type fcell = Memory.fcell = { mutable fv : float }

let new_cell () = { fv = 0.0 }

(* [c], then [float] rounding of its destination [d] when [fk] is
   [float]; chosen once, at load time. *)
let rounded (fk : Types.fkind) (d : fcell) (c : unit -> unit) : unit -> unit =
  match fk with
  | Types.FDouble -> c
  | Types.FFloat ->
    fun () ->
      c ();
      d.fv <- Int32.float_of_bits (Int32.bits_of_float d.fv)

(* Pointers are immediate ints: a [long] outside the OCaml int range
   has no pointer representation, so converting it is an error rather
   than a silent loss of bit 63. *)
let ptr_of_int64 (v : int64) : int =
  let p = Int64.to_int v in
  if Int64.of_int p <> v then
    runtime_error "long %Ld converted to a pointer does not fit in 63 bits" v;
  p

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let stack_size = 4 lsl 20

let make_state () : state =
  (* the stack plus 1 MB covers most programs' data; [Memory.ensure]
     doubles the arena for the rest, and addresses depend only on the
     allocation order, never on the arena's capacity *)
  let mem = Memory.create ~initial:(stack_size + (1 lsl 20)) () in
  (* the simulated call stack is machinery, not program data:
     keep it out of the heap/static footprint that Figure 14 measures *)
  let stack_base = Memory.alloc ~track:false mem stack_size in
  {
    mem;
    out = Buffer.create 256;
    global_addrs = Hashtbl.create 32;
    stack_base;
    stack_limit = stack_base + stack_size;
    sp = stack_base;
    frame = stack_base;
    cycles = 0;
    stats = empty_stats ();
    observer = None;
    access_extra = None;
    loop_hook = None;
    free_hook = None;
    alloc_hook = None;
    rand_state = 0x9E3779B97F4A7C15L;
    fuel = 2_000_000_000;
    iter_skip = false;
    bulk_hook = None;
    read_hook = None;
  }

let global_addr st name =
  match Hashtbl.find_opt st.global_addrs name with
  | Some a -> a
  | None -> runtime_error "unknown global '%s'" name

(** Poke/peek globals from the host (the parallel simulator uses this
    to set [__tid] between iterations). *)
let set_global_int st name (v : int) =
  Memory.store_int st.mem (global_addr st name) 4 v

let get_global_int st name = Memory.load_int st.mem (global_addr st name) 4

let output st = Buffer.contents st.out

(* ------------------------------------------------------------------ *)
(* Access accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* A builtin's read of the C string at [addr], reported to the read
   hook with its terminator. *)
let read_cstring st addr =
  let s = Memory.read_cstring st.mem addr in
  (match st.read_hook with
  | Some h -> h addr (String.length s + 1)
  | None -> ());
  s

let do_load st aid addr size =
  st.stats.n_loads <- st.stats.n_loads + 1;
  st.cycles <-
    st.cycles + Cost.load
    + (match st.access_extra with
      | None -> 0
      | Some f -> f Visit.Load addr size);
  (match st.observer with None -> () | Some f -> f aid Visit.Load addr size)

let do_store st aid addr size =
  st.stats.n_stores <- st.stats.n_stores + 1;
  st.cycles <-
    st.cycles + Cost.store
    + (match st.access_extra with
      | None -> 0
      | Some f -> f Visit.Store addr size);
  (match st.observer with None -> () | Some f -> f aid Visit.Store addr size)

(* Register-resident scalars: a compiler keeps a non-address-taken
   scalar local in a register, so its accesses cost one issue slot and
   never touch the cache model. The dependence observer still sees
   them (they are accesses, and argument/stack reuse must profile
   correctly); only the cost differs. *)
let do_load_reg st aid addr size =
  st.stats.n_loads <- st.stats.n_loads + 1;
  st.cycles <- st.cycles + Cost.arith;
  match st.observer with None -> () | Some f -> f aid Visit.Load addr size

let do_store_reg st aid addr size =
  st.stats.n_stores <- st.stats.n_stores + 1;
  st.cycles <- st.cycles + Cost.arith;
  match st.observer with None -> () | Some f -> f aid Visit.Store addr size

let charge st c = st.cycles <- st.cycles + c

let arith1 st =
  st.cycles <- st.cycles + Cost.arith;
  st.stats.n_arith <- st.stats.n_arith + 1

let branch1 st =
  st.cycles <- st.cycles + Cost.branch;
  st.stats.n_branches <- st.stats.n_branches + 1

let burn_fuel st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then runtime_error "fuel exhausted (infinite loop?)"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* The machine's one return slot. A callee writes the field of its
   return type's kind just before raising [Return_exc], and the caller
   reads it right after catching, before anything else runs, so one
   slot serves every (recursive) call. The float is a cell of its own
   because a float field of this mixed record would be boxed. *)
type ret_slot = {
  mutable r_int : int;
  mutable r_long : int64;
  r_float : fcell;
}

(* The representation of a scalar value, from its static type. *)
type kind = Kint | Klong | Kfloat

type cfun = {
  cf_frame_size : int;
  cf_formals : (int * Ast.aid * int) array;
      (** frame offset, the synthetic access id of the
          argument-binding store, and width. Binding an argument writes
          the formal's stack slot and must be visible to the dependence
          profiler like any other store — otherwise a stale local of a
          previously-popped frame at the same address would appear to
          flow into the formal. *)
  cf_body : unit -> unit;
      (** raises [Return_exc] after filling the return slot *)
  cf_ret_kind : kind option;  (** [None] for void functions *)
  cf_ret : ret_slot;  (** the machine's return slot *)
}

type t = {
  st : state;
  prog : Ast.program;
  funs : (string, cfun option ref) Hashtbl.t;
  mutable inits : (unit -> unit) list;  (** global initializers, in order *)
}

let scalar_width loc (t : Types.ty) : int =
  match t with
  | Types.Tint ik -> Types.ikind_size ik
  | Types.Tfloat fk -> Types.fkind_size fk
  | Types.Tptr _ -> 8
  | t ->
    Loc.error loc "expected a scalar type, got %s" (Types.show_ty t)

let kind_of loc (t : Types.ty) : kind =
  match Types.decay t with
  | Types.Tint Types.ILong -> Klong
  | Types.Tint _ | Types.Tptr _ -> Kint
  | Types.Tfloat _ -> Kfloat
  | t -> Loc.error loc "expected a scalar type, got %s" (Types.show_ty t)

(* Storing a value of each kind into a scalar slot of type [t] (an
   argument, a call result, an assignment), converting it to the slot's
   representation first; [fun addr v -> ...]. A conversion to a
   floating type goes through a scratch cell of the store site's own. *)
let int_store st loc (t : Types.ty) : int -> int -> unit =
  match t with
  | Types.Tint ik ->
    let w = Types.ikind_size ik in
    fun addr v -> Memory.store_int st.mem addr w v
  | Types.Tfloat fk ->
    let w = Types.fkind_size fk in
    let c = new_cell () in
    fun addr v ->
      c.fv <- Float.of_int v;
      Memory.store_float_cell st.mem addr w c
  | Types.Tptr _ -> fun addr v -> Memory.store_int st.mem addr 8 v
  | t -> Loc.error loc "cannot store into type %s" (Types.show_ty t)

let long_store st loc (t : Types.ty) : int -> int64 -> unit =
  match t with
  | Types.Tint ik ->
    let w = Types.ikind_size ik in
    fun addr v -> Memory.store st.mem addr w v
  | Types.Tfloat fk ->
    let w = Types.fkind_size fk in
    let c = new_cell () in
    fun addr v ->
      c.fv <- Int64.to_float v;
      Memory.store_float_cell st.mem addr w c
  | Types.Tptr _ -> fun addr v -> Memory.store st.mem addr 8 v
  | t -> Loc.error loc "cannot store into type %s" (Types.show_ty t)

(* [fun addr c -> ...]: the value in cell [c]. *)
let float_store st loc (t : Types.ty) : int -> fcell -> unit =
  match t with
  | Types.Tint ik ->
    let w = Types.ikind_size ik in
    fun addr c -> Memory.store st.mem addr w (Int64.of_float c.fv)
  | Types.Tfloat fk ->
    let w = Types.fkind_size fk in
    fun addr c -> Memory.store_float_cell st.mem addr w c
  | Types.Tptr _ ->
    fun _ c -> runtime_error "expected an integer value, got float %g" c.fv
  | t -> Loc.error loc "cannot store into type %s" (Types.show_ty t)

type ctx = {
  m : t;
  fe : Typecheck.fenv;
  slots : (string, int) Hashtbl.t;  (** local name -> frame offset *)
  regs : (string, unit) Hashtbl.t;
      (** register-allocatable locals: scalar, address never taken *)
  ret : ret_slot;
}

let comps ctx = ctx.m.prog.Ast.comps
let ty ctx e = Types.decay (Typecheck.exp_ty ctx.fe e)

(* __tid / __nthreads model values the OpenMP runtime hands each thread
   in a register, so their loads are register-priced too *)
let load_in_reg ctx (lv : Ast.lval) =
  match lv with
  | Ast.Var ("__tid" | "__nthreads") -> true
  | Ast.Var x -> Hashtbl.mem ctx.regs x
  | _ -> false

let store_in_reg ctx (lv : Ast.lval) =
  match lv with Ast.Var x -> Hashtbl.mem ctx.regs x | _ -> false

(** Bottom-up constant folding at compile time: integer arithmetic
    over literals and [sizeof] collapses to a literal, as any real
    compiler's folding would (redirection expressions such as
    [__tid * span] rely on this after §3.4's constant propagation). *)
let rec fold_constants comps (e : Ast.exp) : Ast.exp =
  match e with
  | Ast.SizeofType t ->
    Ast.Const (Ast.Cint (Int64.of_int (Types.sizeof comps Loc.dummy t), Types.ILong))
  | Ast.Unop (op, a) -> (
    match (op, fold_constants comps a) with
    | Ast.Neg, Ast.Const (Ast.Cint (v, ik)) ->
      Ast.Const (Ast.Cint (trunc_ikind (Types.promote_ikind ik) (Int64.neg v), ik))
    | Ast.Bitnot, Ast.Const (Ast.Cint (v, ik)) ->
      Ast.Const (Ast.Cint (trunc_ikind (Types.promote_ikind ik) (Int64.lognot v), ik))
    | _, a -> Ast.Unop (op, a))
  | Ast.Binop (op, a, b) -> (
    let a = fold_constants comps a and b = fold_constants comps b in
    match (op, a, b) with
    | Ast.Add, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.add x k1 y k2
    | Ast.Sub, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.sub x k1 y k2
    | Ast.Mul, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.mul x k1 y k2
    | _ -> Ast.Binop (op, a, b))
  | Ast.Cast (t, a) -> (
    match (t, fold_constants comps a) with
    | Types.Tint ik, Ast.Const (Ast.Cint (v, _)) ->
      Ast.Const (Ast.Cint (trunc_ikind ik v, ik))
    | t, a -> Ast.Cast (t, a))
  | e -> e

and fold_int f x k1 y k2 =
  let k =
    if Types.ikind_size k1 >= Types.ikind_size k2 then Types.promote_ikind k1
    else Types.promote_ikind k2
  in
  Ast.Const (Ast.Cint (trunc_ikind k (f x y), k))

(** Is a compile-time constant operand a power of two (modelling
    strength reduction of multiplications into shifts)? *)
let const_pow2 = function
  | Ast.Const (Ast.Cint (v, _)) -> v > 0L && Int64.logand v (Int64.pred v) = 0L
  | _ -> false

let int_op_cost op a b =
  match op with
  | Ast.Mul when const_pow2 a || const_pow2 b ->
    Cost.arith (* strength-reduced to a shift *)
  | Ast.Mul -> Cost.mul
  | Ast.Div | Ast.Mod -> Cost.div
  | _ -> Cost.arith

let cmp_test (op : Ast.binop) : int -> bool =
  match op with
  | Ast.Lt -> fun c -> c < 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Ge -> fun c -> c >= 0
  | Ast.Eq -> fun c -> c = 0
  | Ast.Ne -> fun c -> c <> 0
  | _ -> assert false

let not_this_kind loc what (e : Ast.exp) =
  Loc.error loc "%s compiler given %s" what (Ast.show_exp e)

(* The four compilers below cover every expression form of their
   result type; the [*_of] conversions between them implement C's
   conversions (casts, assignments, returns, conditional arms). *)

(** [char]/[short]/[int] and pointer expressions. *)
let rec compile_int (ctx : ctx) (e : Ast.exp) : unit -> int =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let e = fold_constants (comps ctx) e in
  match e with
  | Ast.Const (Cint (v, ik)) ->
    let v = Int64.to_int (trunc_ikind ik v) in
    fun () -> v
  | Ast.Const (Cstr s) ->
    let addr = Memory.write_cstring st.mem s in
    fun () -> addr
  | Ast.Lval (aid, lv) -> compile_load ctx aid lv Memory.load_int
  | Ast.Addr lv -> compile_addr ctx lv
  | Ast.Unop (Ast.Lognot, _)
  | Ast.Binop ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne), _, _)
  | Ast.Binop ((Ast.Land | Ast.Lor), _, _) ->
    let c = compile_cond ctx e in
    fun () -> if c () then 1 else 0
  | Ast.Unop (op, a) -> (
    let ca = compile_int ctx a in
    match (op, ty ctx a) with
    | Ast.Neg, Types.Tint _ ->
      fun () ->
        arith1 st;
        sext32 (-ca ())
    | Ast.Bitnot, Types.Tint _ ->
      fun () ->
        arith1 st;
        sext32 (lnot (ca ()))
    | _, t -> Loc.error loc "invalid unary operand type %s" (Types.show_ty t))
  | Ast.Binop (op, a, b) -> compile_int_binop ctx op a b
  | Ast.Cast (t, a) -> int_of ctx ~dst:t a
  | Ast.Cond (c, a, b) ->
    let t = ty ctx e in
    compile_select ctx c (int_of ctx ~dst:t) a b
  | Ast.SizeofExp _ -> Loc.error loc "sizeof(expr) survived normalization"
  | Ast.Call (f, _) ->
    Loc.error loc "expression-level call to '%s' survived normalization" f
  | Ast.Const (Cfloat _) | Ast.SizeofType _ -> not_this_kind loc "int" e

and compile_int_binop ctx op a b : unit -> int =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let ta = ty ctx a and tb = ty ctx b in
  let elem_size t = Types.sizeof (comps ctx) loc (Types.pointee loc t) in
  match op with
  | Ast.Add when Types.is_pointer ta ->
    let sz = elem_size ta in
    let cp = compile_int ctx a in
    let ci = int_index ctx b in
    fun () ->
      arith1 st;
      let i = ci () in
      cp () + (i * sz)
  | Ast.Add when Types.is_pointer tb ->
    let sz = elem_size tb in
    let ci = int_index ctx a in
    let cp = compile_int ctx b in
    fun () ->
      arith1 st;
      let i = ci () in
      cp () + (i * sz)
  | Ast.Sub when Types.is_pointer ta && not (Types.is_pointer tb) ->
    let sz = elem_size ta in
    let cp = compile_int ctx a in
    let ci = int_index ctx b in
    fun () ->
      arith1 st;
      let i = ci () in
      cp () - (i * sz)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr
  | Ast.Band | Ast.Bor | Ast.Bxor ->
    (* both operands are char/short/int, so the result is an int *)
    let ca = compile_int ctx a in
    let cb = compile_int ctx b in
    let cost = int_op_cost op a b in
    let f : int -> int -> int =
      match op with
      | Ast.Add -> ( + )
      | Ast.Sub -> ( - )
      | Ast.Mul -> ( * )
      | Ast.Div ->
        fun x y -> if y = 0 then runtime_error "division by zero" else x / y
      | Ast.Mod ->
        fun x y -> if y = 0 then runtime_error "modulo by zero" else x mod y
      | Ast.Shl -> fun x y -> x lsl (y land 31)
      | Ast.Shr -> fun x y -> x asr (y land 31)
      | Ast.Band -> ( land )
      | Ast.Bor -> ( lor )
      | Ast.Bxor -> ( lxor )
      | _ -> assert false
    in
    fun () ->
      st.cycles <- st.cycles + cost;
      st.stats.n_arith <- st.stats.n_arith + 1;
      let y = cb () in
      sext32 (f (ca ()) y)
  | _ -> not_this_kind loc "int" (Ast.Binop (op, a, b))

(** [long] expressions. *)
and compile_long (ctx : ctx) (e : Ast.exp) : unit -> int64 =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let e = fold_constants (comps ctx) e in
  match e with
  | Ast.Const (Cint (v, ik)) ->
    let v = trunc_ikind ik v in
    fun () -> v
  | Ast.Lval (aid, lv) -> compile_load ctx aid lv Memory.load
  | Ast.Unop (op, a) -> (
    let ca = compile_long ctx a in
    match (op, ty ctx a) with
    | Ast.Neg, Types.Tint _ ->
      fun () ->
        arith1 st;
        Int64.neg (ca ())
    | Ast.Bitnot, Types.Tint _ ->
      fun () ->
        arith1 st;
        Int64.lognot (ca ())
    | _, t -> Loc.error loc "invalid unary operand type %s" (Types.show_ty t))
  | Ast.Binop (Ast.Sub, a, b)
    when Types.is_pointer (ty ctx a) && Types.is_pointer (ty ctx b) ->
    let sz = Types.sizeof (comps ctx) loc (Types.pointee loc (ty ctx a)) in
    let ca = compile_int ctx a in
    let cb = compile_int ctx b in
    fun () ->
      arith1 st;
      let y = cb () in
      Int64.of_int ((ca () - y) / sz)
  | Ast.Binop
      ( (( Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr
         | Ast.Band | Ast.Bor | Ast.Bxor ) as op),
        a,
        b ) -> (
    let ca = long_operand ctx a in
    let cb = long_operand ctx b in
    let cost = int_op_cost op a b in
    let f : int64 -> int64 -> int64 =
      match op with
      | Ast.Add -> Int64.add
      | Ast.Sub -> Int64.sub
      | Ast.Mul -> Int64.mul
      | Ast.Div ->
        fun x y ->
          if y = 0L then runtime_error "division by zero" else Int64.div x y
      | Ast.Mod ->
        fun x y ->
          if y = 0L then runtime_error "modulo by zero" else Int64.rem x y
      | Ast.Shl -> fun x y -> Int64.shift_left x (Int64.to_int y land 63)
      | Ast.Shr -> fun x y -> Int64.shift_right x (Int64.to_int y land 63)
      | Ast.Band -> Int64.logand
      | Ast.Bor -> Int64.logor
      | Ast.Bxor -> Int64.logxor
      | _ -> assert false
    in
    fun () ->
      st.cycles <- st.cycles + cost;
      st.stats.n_arith <- st.stats.n_arith + 1;
      let y = cb () in
      f (ca ()) y)
  | Ast.Cast (_, a) -> long_of ctx a
  | Ast.Cond (c, a, b) -> compile_select ctx c (long_of ctx) a b
  | Ast.SizeofExp _ -> Loc.error loc "sizeof(expr) survived normalization"
  | Ast.Call (f, _) ->
    Loc.error loc "expression-level call to '%s' survived normalization" f
  | _ -> not_this_kind loc "long" e

(** [float]/[double] expressions, in destination-passing style:
    [compile_float ctx e d] leaves [e]'s value in [d]. Each operand of
    a binary operation gets a cell of its own at load time; negation
    and conversions work in [d]. Calls are hoisted out of expressions,
    so no node runs again while its cells are live, even under
    recursion. *)
and compile_float (ctx : ctx) (e : Ast.exp) (d : fcell) : unit -> unit =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let e = fold_constants (comps ctx) e in
  match e with
  | Ast.Const (Cfloat (f, fk)) ->
    let v = round_float_kind fk f in
    fun () -> d.fv <- v
  | Ast.Lval (aid, lv) -> compile_load_float ctx aid lv d
  | Ast.Unop (Ast.Neg, a) ->
    let ca = compile_float ctx a d in
    fun () ->
      charge st Cost.float_arith;
      st.stats.n_arith <- st.stats.n_arith + 1;
      ca ();
      d.fv <- -.d.fv
  | Ast.Unop (_, a) ->
    Loc.error loc "invalid unary operand type %s" (Types.show_ty (ty ctx a))
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) ->
    let fk =
      match ty ctx e with
      | Types.Tfloat fk -> fk
      | t -> Loc.error loc "float op with non-float type %s" (Types.show_ty t)
    in
    let x = new_cell () and y = new_cell () in
    let ca = float_operand ctx a x in
    let cb = float_operand ctx b y in
    let cost = if op = Ast.Div then Cost.float_div else Cost.float_arith in
    rounded fk d (fun () ->
        st.cycles <- st.cycles + cost;
        st.stats.n_arith <- st.stats.n_arith + 1;
        cb ();
        ca ();
        d.fv <-
          (match op with
          | Ast.Add -> x.fv +. y.fv
          | Ast.Sub -> x.fv -. y.fv
          | Ast.Mul -> x.fv *. y.fv
          | _ -> x.fv /. y.fv))
  | Ast.Cast (t, a) -> float_of ctx ~dst:t a d
  | Ast.Cond (c, a, b) ->
    let t = ty ctx e in
    compile_select ctx c (fun arm -> float_of ctx ~dst:t arm d) a b
  | Ast.SizeofExp _ -> Loc.error loc "sizeof(expr) survived normalization"
  | Ast.Call (f, _) ->
    Loc.error loc "expression-level call to '%s' survived normalization" f
  | _ -> not_this_kind loc "float" e

(** Conditions: any scalar expression, tested against zero. *)
and compile_cond (ctx : ctx) (e : Ast.exp) : unit -> bool =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let e = fold_constants (comps ctx) e in
  match e with
  | Ast.Binop (((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    ->
    let ta = ty ctx a and tb = ty ctx b in
    if Types.is_float ta || Types.is_float tb then begin
      (* C's (IEEE) tests: with a NaN operand only [!=] holds *)
      let x = new_cell () and y = new_cell () in
      let ca = float_operand ctx a x in
      let cb = float_operand ctx b y in
      fun () ->
        arith1 st;
        cb ();
        ca ();
        match op with
        | Ast.Lt -> x.fv < y.fv
        | Ast.Gt -> x.fv > y.fv
        | Ast.Le -> x.fv <= y.fv
        | Ast.Ge -> x.fv >= y.fv
        | Ast.Eq -> x.fv = y.fv
        | _ -> x.fv <> y.fv
    end
    else if kind_of loc ta = Klong || kind_of loc tb = Klong then begin
      let test = cmp_test op in
      let ca = long_operand ctx a in
      let cb = long_operand ctx b in
      fun () ->
        arith1 st;
        let y = cb () in
        test (Int64.compare (ca ()) y)
    end
    else
      let test = cmp_test op in
      let ca = compile_int ctx a in
      let cb = compile_int ctx b in
      fun () ->
        arith1 st;
        let y = cb () in
        test (Int.compare (ca ()) y)
  | Ast.Binop (Ast.Land, a, b) ->
    let ca = compile_cond ctx a in
    let cb = compile_cond ctx b in
    fun () ->
      branch1 st;
      ca () && cb ()
  | Ast.Binop (Ast.Lor, a, b) ->
    let ca = compile_cond ctx a in
    let cb = compile_cond ctx b in
    fun () ->
      branch1 st;
      ca () || cb ()
  | Ast.Unop (Ast.Lognot, a) ->
    let ca = compile_cond ctx a in
    fun () ->
      arith1 st;
      not (ca ())
  | _ -> (
    match kind_of loc (ty ctx e) with
    | Kint ->
      let c = compile_int ctx e in
      fun () -> c () <> 0
    | Klong ->
      let c = compile_long ctx e in
      fun () -> c () <> 0L
    | Kfloat ->
      let x = new_cell () in
      let c = compile_float ctx e x in
      fun () ->
        c ();
        x.fv <> 0.0)

(* C's conversions from an expression's own type to [dst]. Converting
   to the same type is the identity (no truncation). *)

(** To [dst], a [char]/[short]/[int] or pointer type. *)
and int_of ctx ~(dst : Types.ty) (e : Ast.exp) : unit -> int =
  let loc = Loc.dummy in
  let src = ty ctx e and dst = Types.decay dst in
  let trunc ik (c : unit -> int) =
    match ik with
    | Types.IInt -> fun () -> sext32 (c ())
    | Types.IShort -> fun () -> sext16 (c ())
    | Types.IChar -> fun () -> sext8 (c ())
    | Types.ILong -> c
  in
  match (src, dst) with
  | a, b when Types.equal_ty a b -> compile_int ctx e
  | Types.Tint Types.ILong, Types.Tint ik ->
    let c = compile_long ctx e in
    trunc ik (fun () -> Int64.to_int (c ()))
  | (Types.Tint _ | Types.Tptr _), Types.Tint ik -> trunc ik (compile_int ctx e)
  | Types.Tfloat _, Types.Tint ik ->
    let x = new_cell () in
    let c = compile_float ctx e x in
    trunc ik (fun () ->
        c ();
        let f = x.fv in
        if Float.is_nan f then 0 else Int64.to_int (Int64.of_float f))
  | Types.Tint Types.ILong, Types.Tptr _ ->
    let c = compile_long ctx e in
    fun () -> ptr_of_int64 (c ())
  | (Types.Tptr _ | Types.Tint _), Types.Tptr _ -> compile_int ctx e
  | a, b ->
    Loc.error loc "cannot convert %s to %s" (Types.show_ty a) (Types.show_ty b)

(** To [long]. *)
and long_of ctx (e : Ast.exp) : unit -> int64 =
  let loc = Loc.dummy in
  match ty ctx e with
  | Types.Tint Types.ILong -> compile_long ctx e
  | Types.Tint _ | Types.Tptr _ ->
    let c = compile_int ctx e in
    fun () -> Int64.of_int (c ())
  | Types.Tfloat _ ->
    let x = new_cell () in
    let c = compile_float ctx e x in
    fun () ->
      c ();
      let f = x.fv in
      if Float.is_nan f then 0L else Int64.of_float f
  | a ->
    Loc.error loc "cannot convert %s to %s" (Types.show_ty a)
      (Types.show_ty (Types.Tint Types.ILong))

(** To [dst], [float] or [double], in [d]. *)
and float_of ctx ~(dst : Types.ty) (e : Ast.exp) (d : fcell) : unit -> unit =
  let loc = Loc.dummy in
  let fk =
    match Types.decay dst with
    | Types.Tfloat fk -> fk
    | t -> Loc.error loc "cannot convert to %s" (Types.show_ty t)
  in
  match ty ctx e with
  | Types.Tfloat fk' when fk' = fk -> compile_float ctx e d
  | Types.Tfloat _ | Types.Tint _ -> rounded fk d (float_operand ctx e d)
  | a ->
    Loc.error loc "cannot convert %s to %s" (Types.show_ty a)
      (Types.show_ty dst)

(* Operands of binary operators are not converted to the result type;
   they are read as C's integer or floating value of their own type. *)
and int_index ctx (e : Ast.exp) : unit -> int =
  match kind_of Loc.dummy (ty ctx e) with
  | Kint -> compile_int ctx e
  | Klong ->
    let c = compile_long ctx e in
    fun () -> Int64.to_int (c ())
  | Kfloat -> not_this_kind Loc.dummy "index" e

and long_operand ctx (e : Ast.exp) : unit -> int64 =
  match kind_of Loc.dummy (ty ctx e) with
  | Klong -> compile_long ctx e
  | Kint ->
    let c = compile_int ctx e in
    fun () -> Int64.of_int (c ())
  | Kfloat -> not_this_kind Loc.dummy "integer operand" e

and float_operand ctx (e : Ast.exp) (d : fcell) : unit -> unit =
  match kind_of Loc.dummy (ty ctx e) with
  | Kfloat -> compile_float ctx e d
  | Klong ->
    let c = compile_long ctx e in
    fun () -> d.fv <- Int64.to_float (c ())
  | Kint ->
    let c = compile_int ctx e in
    fun () -> d.fv <- Float.of_int (c ())

(* A scalar load: the address, then the access's cost and observer
   call, then [read]. *)
and compile_load : 'a. ctx -> Ast.aid -> Ast.lval ->
    (Memory.t -> int -> int -> 'a) -> unit -> 'a =
 fun ctx aid lv read ->
  let st = ctx.m.st in
  let width = scalar_width Loc.dummy (Typecheck.lval_ty ctx.fe lv) in
  let addr_c = compile_addr ctx lv in
  let in_reg = load_in_reg ctx lv in
  fun () ->
    let addr = addr_c () in
    if in_reg then do_load_reg st aid addr width
    else do_load st aid addr width;
    read st.mem addr width

(* The same for a [float]/[double] load into [d]; a closure around
   [Memory.load_float_cell] passed as [read] would add a call to every
   load. *)
and compile_load_float ctx aid lv (d : fcell) : unit -> unit =
  let st = ctx.m.st in
  let width = scalar_width Loc.dummy (Typecheck.lval_ty ctx.fe lv) in
  let addr_c = compile_addr ctx lv in
  let in_reg = load_in_reg ctx lv in
  fun () ->
    let addr = addr_c () in
    if in_reg then do_load_reg st aid addr width
    else do_load st aid addr width;
    Memory.load_float_cell st.mem addr width d

(* [c ? a : b], with both arms compiled (in that order) by [arm]. *)
and compile_select : 'a. ctx -> Ast.exp -> (Ast.exp -> unit -> 'a) ->
    Ast.exp -> Ast.exp -> unit -> 'a =
 fun ctx c arm a b ->
  let st = ctx.m.st in
  let cc = compile_cond ctx c in
  let ca = arm a in
  let cb = arm b in
  fun () ->
    branch1 st;
    if cc () then ca () else cb ()

(** Compile the address computation of an lvalue. *)
and compile_addr (ctx : ctx) (lv : Ast.lval) : unit -> int =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  match lv with
  | Ast.Var x -> (
    match Hashtbl.find_opt ctx.slots x with
    | Some off -> fun () -> st.frame + off
    | None ->
      let addr = global_addr st x in
      fun () -> addr)
  | Ast.Deref e ->
    let ce = compile_int ctx e in
    fun () ->
      let a = ce () in
      if a = 0 then runtime_error "null pointer dereference";
      a
  | Ast.Index (base, i) ->
    let elt =
      match Typecheck.lval_ty ctx.fe base with
      | Types.Tarray (elt, _) -> elt
      | t -> Loc.error loc "Index base is %s, not array" (Types.show_ty t)
    in
    let sz = Types.sizeof (comps ctx) loc elt in
    let cb = compile_addr ctx base in
    let ci = int_index ctx i in
    (* scaled-index address generation folds into the access (AGU) *)
    fun () ->
      let i = ci () in
      cb () + (i * sz)
  | Ast.Field (base, f) ->
    let tag =
      match Typecheck.lval_ty ctx.fe base with
      | Types.Tstruct tag -> tag
      | t -> Loc.error loc "Field base is %s, not struct" (Types.show_ty t)
    in
    let off, _ = Types.field_offset (comps ctx) loc tag f in
    let cb = compile_addr ctx base in
    fun () -> cb () + off

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Store [e], converted to [t], at the address [addr_c] computes; the
   value is evaluated first. [note] reports the store (cost and
   observer) after the write. *)
let compile_store ctx loc (t : Types.ty) (addr_c : unit -> int)
    (e : Ast.exp) ~(note : int -> unit) : unit -> unit =
  let st = ctx.m.st in
  match kind_of loc t with
  | Kint ->
    let store = int_store st loc t in
    let ce = int_of ctx ~dst:t e in
    fun () ->
      let v = ce () in
      let addr = addr_c () in
      store addr v;
      note addr
  | Klong ->
    let store = long_store st loc t in
    let ce = long_of ctx e in
    fun () ->
      let v = ce () in
      let addr = addr_c () in
      store addr v;
      note addr
  | Kfloat ->
    let w = scalar_width loc t in
    let v = new_cell () in
    let ce = float_of ctx ~dst:t e v in
    fun () ->
      ce ();
      let addr = addr_c () in
      Memory.store_float_cell st.mem addr w v;
      note addr

let store_note ctx loc aid (lv : Ast.lval) (t : Types.ty) : int -> unit =
  let st = ctx.m.st in
  let width = scalar_width loc t in
  if store_in_reg ctx lv then fun addr -> do_store_reg st aid addr width
  else fun addr -> do_store st aid addr width

let zero_ret r =
  r.r_int <- 0;
  r.r_long <- 0L;
  r.r_float.fv <- 0.0

type printf_arg = Pint of int64 | Pfloat of float

let rec compile_stmt (ctx : ctx) (s : Ast.stmt) : unit -> unit =
  let st = ctx.m.st in
  let loc = s.Ast.sloc in
  match s.Ast.skind with
  | Ast.Sskip -> fun () -> ()
  | Ast.Sassign (aid, lv, e) ->
    let tlv = Typecheck.lval_ty ctx.fe lv in
    let note = store_note ctx loc aid lv tlv in
    let addr_c = compile_addr ctx lv in
    (* the observer fires after the write so value-reading observers
       (the privatization-contract checker) see the stored value; the
       dependence profiler is positional and does not care *)
    compile_store ctx loc tlv addr_c e ~note
  | Ast.Scall (ret, f, args) -> compile_call ctx loc ret f args
  | Ast.Sseq stmts ->
    let cs = Array.of_list (List.map (compile_stmt ctx) stmts) in
    fun () ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) ()
      done
  | Ast.Sif (c, a, b) ->
    let cc = compile_cond ctx c in
    let ca = compile_stmt ctx a in
    let cb = compile_stmt ctx b in
    fun () ->
      branch1 st;
      if cc () then ca () else cb ()
  | Ast.Swhile (lid, c, body) ->
    let cc = compile_cond ctx c in
    let cbody = compile_stmt ctx body in
    compile_loop st lid cc cbody (fun () -> ())
  | Ast.Sfor (lid, init, c, step, body) ->
    let cinit = compile_stmt ctx init in
    let cc = compile_cond ctx c in
    let cstep = compile_stmt ctx step in
    let cbody = compile_stmt ctx body in
    let loop = compile_loop st lid cc cbody cstep in
    fun () ->
      cinit ();
      loop ()
  | Ast.Sreturn None ->
    let r = ctx.ret in
    fun () ->
      zero_ret r;
      raise_notrace Return_exc
  | Ast.Sreturn (Some e) -> (
    let r = ctx.ret in
    let t = ctx.fe.Typecheck.fn_ret in
    match kind_of loc t with
    | Kint ->
      let ce = int_of ctx ~dst:t e in
      fun () ->
        r.r_int <- ce ();
        raise_notrace Return_exc
    | Klong ->
      let ce = long_of ctx e in
      fun () ->
        r.r_long <- ce ();
        raise_notrace Return_exc
    | Kfloat ->
      let ce = float_of ctx ~dst:t e r.r_float in
      fun () ->
        ce ();
        raise_notrace Return_exc)
  | Ast.Sbreak -> fun () -> raise_notrace Break_exc
  | Ast.Scontinue -> fun () -> raise_notrace Continue_exc

(* The [Iter] event fires BEFORE the condition of iteration [i] is
   evaluated, so that condition accesses are attributed to the
   iteration about to run (a condition read of a value written by the
   previous iteration is then correctly seen as loop-carried). A loop
   that exits via its condition thus reports one trailing [Iter] whose
   segment contains only the failing test. A [break] or a [return]
   leaves the loop through [Exit] too; a runtime fault does not (the
   domain machines' [Exit] handler waits on a barrier). *)
and compile_loop st lid cc cbody cstep : unit -> unit =
  fun () ->
    (match st.loop_hook with Some h -> h lid Enter 0 | None -> ());
    (try
       let iter = ref 0 in
       let continue_ = ref true in
       while !continue_ do
         (match st.loop_hook with Some h -> h lid Iter !iter | None -> ());
         burn_fuel st;
         branch1 st;
         if cc () then begin
           if st.iter_skip then st.iter_skip <- false
           else (try cbody () with Continue_exc -> ());
           cstep ();
           incr iter
         end
         else begin
           (* the trailing [Iter] probe may have requested a skip for a
              body that will never run; don't leak it past the loop *)
           st.iter_skip <- false;
           continue_ := false
         end
       done
     with
     | Break_exc -> ()
     | Return_exc ->
       (match st.loop_hook with Some h -> h lid Exit 0 | None -> ());
       raise_notrace Return_exc);
    match st.loop_hook with Some h -> h lid Exit 0 | None -> ()

(* Store the value a call left in the return slot (of kind [k]) into
   the call's result lvalue, converting it to the lvalue's type. *)
and compile_ret_store ctx loc ret (k : kind) : unit -> unit =
  let st = ctx.m.st in
  match ret with
  | None -> fun () -> ()
  | Some (aid, lv) -> (
    let tlv = Typecheck.lval_ty ctx.fe lv in
    let note = store_note ctx loc aid lv tlv in
    let addr_c = compile_addr ctx lv in
    let r = ctx.ret in
    match k with
    | Kint ->
      let store = int_store st loc tlv in
      fun () ->
        let addr = addr_c () in
        store addr r.r_int;
        note addr
    | Klong ->
      let store = long_store st loc tlv in
      fun () ->
        let addr = addr_c () in
        store addr r.r_long;
        note addr
    | Kfloat ->
      let store = float_store st loc tlv in
      fun () ->
        let addr = addr_c () in
        store addr r.r_float;
        note addr)

(* One call-site scratch slot per argument: [eval] computes the
   argument in the caller's frame, [bind] stores it into the callee's
   formal (of type [t]) once the frame is pushed. *)
and arg_binder ctx loc (e : Ast.exp) (t : Types.ty) :
    (unit -> unit) * (int -> unit) =
  let st = ctx.m.st in
  match kind_of loc (ty ctx e) with
  | Kint ->
    let c = compile_int ctx e in
    let store = int_store st loc t in
    let slot = ref 0 in
    ((fun () -> slot := c ()), fun addr -> store addr !slot)
  | Klong ->
    let c = compile_long ctx e in
    let store = long_store st loc t in
    let slot = ref 0L in
    ((fun () -> slot := c ()), fun addr -> store addr !slot)
  | Kfloat ->
    let slot = new_cell () in
    let c = compile_float ctx e slot in
    let store = float_store st loc t in
    (c, fun addr -> store addr slot)

and compile_call ctx loc ret f args : unit -> unit =
  let st = ctx.m.st in
  match Ast.find_fun ctx.m.prog f with
  | Some fd ->
    let binders =
      List.map2 (fun e (_, t) -> arg_binder ctx loc e t) args fd.Ast.fformals
    in
    let evals = Array.of_list (List.map fst binders) in
    let binds = Array.of_list (List.map snd binders) in
    let nargs = Array.length evals in
    let store_ret =
      match fd.Ast.freturn with
      | Types.Tvoid -> fun () -> ()
      | t -> compile_ret_store ctx loc ret (kind_of loc t)
    in
    let cf_ref =
      match Hashtbl.find_opt ctx.m.funs f with
      | Some r -> r
      | None -> Loc.error loc "function '%s' not compiled" f
    in
    fun () ->
      burn_fuel st;
      charge st Cost.call;
      st.stats.n_calls <- st.stats.n_calls + 1;
      let cf =
        match !cf_ref with
        | Some cf -> cf
        | None -> runtime_error "function '%s' not yet linked" f
      in
      for i = 0 to nargs - 1 do
        evals.(i) ()
      done;
      (* push a frame *)
      let base = (st.sp + 7) land lnot 7 in
      if base + cf.cf_frame_size > st.stack_limit then
        runtime_error "stack overflow calling '%s'" f;
      let old_sp = st.sp and old_frame = st.frame in
      st.sp <- base + cf.cf_frame_size;
      st.frame <- base;
      Memory.fill st.mem ~dst:base ~len:cf.cf_frame_size 0;
      for i = 0 to nargs - 1 do
        let off, aid, width = cf.cf_formals.(i) in
        let addr = base + off in
        binds.(i) addr;
        do_store st aid addr width
      done;
      (match cf.cf_body () with
      | () -> zero_ret ctx.ret
      | exception Return_exc -> ());
      st.sp <- old_sp;
      st.frame <- old_frame;
      store_ret ()
  | None ->
    let ret_aid = Option.map fst ret in
    let bi, k = compile_builtin ctx loc ?ret_aid f args in
    let store_ret = compile_ret_store ctx loc ret k in
    fun () ->
      charge st Cost.call;
      st.stats.n_calls <- st.stats.n_calls + 1;
      bi ();
      store_ret ()

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

(* A builtin evaluates its arguments left to right, runs, and leaves
   its result in the return slot; the second component is that
   result's kind. The type checker has checked the arities. *)
and compile_builtin ctx loc ?ret_aid name (args : Ast.exp list) :
    (unit -> unit) * kind =
  let st = ctx.m.st in
  let r = ctx.ret in
  let notify_alloc base size =
    match st.alloc_hook with Some h -> h ret_aid base size | None -> ()
  in
  let int_arg e : unit -> int =
    match kind_of loc (ty ctx e) with
    | Kint -> compile_int ctx e
    | Klong ->
      let c = compile_long ctx e in
      fun () -> Int64.to_int (c ())
    | Kfloat ->
      let x = new_cell () in
      let c = compile_float ctx e x in
      fun () ->
        c ();
        runtime_error "expected an integer value, got float %g" x.fv
  in
  let one () =
    match args with [ a ] -> a | _ -> Loc.error loc "bad arity for %s" name
  in
  (* integer arguments, evaluated into this call site's scratch [v] *)
  let ints (f : int array -> int) =
    let cs = Array.of_list (List.map int_arg args) in
    let v = Array.make (Array.length cs) 0 in
    ( (fun () ->
        for i = 0 to Array.length cs - 1 do
          v.(i) <- cs.(i) ()
        done;
        r.r_int <- f v),
      Kint )
  in
  (* [f x d] leaves the result for the argument in [x] in [d] *)
  let float1 (f : fcell -> fcell -> unit) =
    let x = new_cell () in
    let c = float_operand ctx (one ()) x in
    ( (fun () ->
        c ();
        charge st Cost.float_fn;
        f x r.r_float),
      Kfloat )
  in
  (* builtins whose result is their (possibly long) argument's C value *)
  let int_or_long on_int on_long =
    let a = one () in
    match kind_of loc (ty ctx a) with
    | Klong ->
      let c = compile_long ctx a in
      ((fun () -> on_long (c ())), Klong)
    | _ ->
      let c = int_arg a in
      ((fun () -> on_int (c ())), Kint)
  in
  match name with
  | "malloc" ->
    ints (fun v ->
        charge st Cost.malloc;
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        let base = Memory.alloc st.mem v.(0) in
        notify_alloc base v.(0);
        base)
  | "calloc" ->
    ints (fun v ->
        charge st Cost.malloc;
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        let n = v.(0) * v.(1) in
        let base = Memory.alloc st.mem n in
        notify_alloc base n;
        base)
  | "realloc" ->
    ints (fun v ->
        let p = v.(0) and n = v.(1) in
        charge st (Cost.malloc + Cost.free);
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        if p = 0 then begin
          let base = Memory.alloc st.mem n in
          notify_alloc base n;
          base
        end
        else begin
          let old = Memory.block_size st.mem p in
          let fresh = Memory.alloc st.mem n in
          Memory.blit st.mem ~src:p ~dst:fresh ~len:(min old n);
          (match st.bulk_hook with
          | Some h -> h fresh (Some p) (min old n)
          | None -> ());
          (match st.free_hook with Some h -> h p old | None -> ());
          Memory.free st.mem p;
          notify_alloc fresh n;
          fresh
        end)
  | "free" ->
    ints (fun v ->
        let base = v.(0) in
        charge st Cost.free;
        (if base <> 0 then
           match st.free_hook with
           | Some h -> h base (Memory.block_size st.mem base)
           | None -> ());
        Memory.free st.mem base;
        0)
  | "printf" -> (
    match args with
    | [] -> Loc.error loc "printf with no format"
    | fmt :: rest ->
      let cfmt = int_arg fmt in
      let crest =
        List.map
          (fun e : (unit -> printf_arg) ->
            match kind_of loc (ty ctx e) with
            | Kint ->
              let c = compile_int ctx e in
              fun () -> Pint (Int64.of_int (c ()))
            | Klong ->
              let c = compile_long ctx e in
              fun () -> Pint (c ())
            | Kfloat ->
              let x = new_cell () in
              let c = compile_float ctx e x in
              fun () ->
                c ();
                Pfloat x.fv)
          rest
      in
      ( (fun () ->
          let fmt = cfmt () in
          let args = List.map (fun c -> c ()) crest in
          let s = format_printf st fmt args in
          Buffer.add_string st.out s;
          charge st (Cost.io_char * String.length s);
          r.r_int <- String.length s),
        Kint ))
  | "putchar" ->
    let put c =
      Buffer.add_char st.out (Char.chr (c land 0xff));
      charge st Cost.io_char
    in
    int_or_long
      (fun c ->
        put c;
        r.r_int <- c)
      (fun c ->
        put (Int64.to_int c);
        r.r_long <- c)
  | "puts" ->
    ints (fun v ->
        let s = read_cstring st v.(0) in
        Buffer.add_string st.out s;
        Buffer.add_char st.out '\n';
        charge st (Cost.io_char * (String.length s + 1));
        0)
  | "memset" ->
    ints (fun v ->
        let p = v.(0) and n = v.(2) in
        Memory.fill st.mem ~dst:p ~len:n v.(1);
        (match st.bulk_hook with Some h -> h p None n | None -> ());
        charge st (n / 8 * Cost.store);
        p)
  | "memcpy" ->
    ints (fun v ->
        let d = v.(0) and s = v.(1) and n = v.(2) in
        Memory.blit st.mem ~src:s ~dst:d ~len:n;
        (match st.bulk_hook with Some h -> h d (Some s) n | None -> ());
        charge st (n / 8 * (Cost.load + Cost.store));
        d)
  | "strlen" ->
    ints (fun v ->
        let n = Memory.strlen st.mem v.(0) in
        (match st.read_hook with Some h -> h v.(0) (n + 1) | None -> ());
        charge st (n * Cost.load);
        n)
  | "abs" | "labs" ->
    int_or_long (fun v -> r.r_int <- abs v) (fun v -> r.r_long <- Int64.abs v)
  | "sqrt" -> float1 (fun x d -> d.fv <- sqrt x.fv)
  | "fabs" -> float1 (fun x d -> d.fv <- Float.abs x.fv)
  | "floor" -> float1 (fun x d -> d.fv <- Float.floor x.fv)
  | "exp" -> float1 (fun x d -> d.fv <- Stdlib.exp x.fv)
  | "log" -> float1 (fun x d -> d.fv <- Stdlib.log x.fv)
  | "rand" ->
    ints (fun _ ->
        st.rand_state <-
          Int64.add
            (Int64.mul st.rand_state 6364136223846793005L)
            1442695040888963407L;
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical st.rand_state 33) 0x3FFFFFFFL))
  | "srand" ->
    let seed v = st.rand_state <- Int64.add v 0x9E3779B97F4A7C15L in
    int_or_long (fun v -> seed (Int64.of_int v)) seed
  | "exit" -> ints (fun v -> raise (Exit_program v.(0)))
  | "assert" ->
    let check failed =
      if failed then runtime_error "assertion failed at %s" (Loc.to_string loc)
    in
    int_or_long (fun v -> check (v = 0)) (fun v -> check (v = 0L))
  | _ -> Loc.error loc "unknown builtin '%s'" name

(** Minimal printf: supports %d %i %u %c %s %x %f %g %e %%, the 'l'
    length modifier, width, '0'/'-' flags and precision. *)
and format_printf st fmt_addr (args : printf_arg list) : string =
  let fmt = read_cstring st fmt_addr in
  let buf = Buffer.create (String.length fmt) in
  let args = ref args in
  let pop () =
    match !args with
    | [] -> runtime_error "printf: not enough arguments"
    | v :: rest ->
      args := rest;
      v
  in
  let as_int = function
    | Pint v -> v
    | Pfloat f -> runtime_error "expected an integer value, got float %g" f
  in
  let as_float = function Pfloat f -> f | Pint v -> Int64.to_float v in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' then begin
      Buffer.add_char buf c;
      incr i
    end
    else begin
      incr i;
      (* flags *)
      let minus = ref false and zero = ref false in
      let rec flags () =
        if !i < n then
          match fmt.[!i] with
          | '-' ->
            minus := true;
            incr i;
            flags ()
          | '0' ->
            zero := true;
            incr i;
            flags ()
          | _ -> ()
      in
      flags ();
      let num () =
        let start = !i in
        while !i < n && fmt.[!i] >= '0' && fmt.[!i] <= '9' do incr i done;
        if !i > start then int_of_string (String.sub fmt start (!i - start))
        else 0
      in
      let width = num () in
      let prec = if !i < n && fmt.[!i] = '.' then (incr i; num ()) else -1 in
      while !i < n && (fmt.[!i] = 'l' || fmt.[!i] = 'h') do incr i done;
      if !i >= n then runtime_error "printf: truncated conversion";
      let conv = fmt.[!i] in
      incr i;
      let pad s =
        let len = String.length s in
        if len >= width then s
        else if !minus then s ^ String.make (width - len) ' '
        else if !zero && not !minus then
          (* keep sign before zeros *)
          if len > 0 && (s.[0] = '-' || s.[0] = '+') then
            String.make 1 s.[0]
            ^ String.make (width - len) '0'
            ^ String.sub s 1 (len - 1)
          else String.make (width - len) '0' ^ s
        else String.make (width - len) ' ' ^ s
      in
      let text =
        match conv with
        | '%' -> "%"
        | 'd' | 'i' | 'u' -> Int64.to_string (as_int (pop ()))
        | 'x' -> Printf.sprintf "%Lx" (as_int (pop ()))
        | 'c' -> String.make 1 (Char.chr (Int64.to_int (as_int (pop ())) land 0xff))
        | 's' -> read_cstring st (Int64.to_int (as_int (pop ())))
        | 'f' -> Printf.sprintf "%.*f" (if prec >= 0 then prec else 6) (as_float (pop ()))
        | 'e' -> Printf.sprintf "%.*e" (if prec >= 0 then prec else 6) (as_float (pop ()))
        | 'g' -> Printf.sprintf "%.*g" (if prec >= 0 then prec else 6) (as_float (pop ()))
        | c -> runtime_error "printf: unsupported conversion '%%%c'" c
      in
      Buffer.add_string buf (pad text)
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Program loading                                                     *)
(* ------------------------------------------------------------------ *)

let frame_layout comps (f : Ast.fundef) :
    int * (string * (int * Types.ty)) list =
  let loc = Loc.dummy in
  List.fold_left
    (fun (off, slots) (name, t) ->
      let al = Types.alignof comps loc t in
      let off = Types.roundup off al in
      (off + Types.sizeof comps loc t, (name, (off, t)) :: slots))
    (0, [])
    (f.Ast.fformals @ f.Ast.flocals)
  |> fun (size, slots) -> (Types.roundup size 8, List.rev slots)

let rec eval_init m ctx (t : Types.ty) addr (ini : Ast.init) : unit =
  let loc = Loc.dummy in
  let comps = m.prog.Ast.comps in
  match (t, ini) with
  | _, Ast.Iexp e when Types.is_scalar (Types.decay t) ->
    compile_store ctx loc t (fun () -> addr) e ~note:ignore ()
  | Types.Tarray (elt, n), Ast.Ilist items ->
    let sz = Types.sizeof comps loc elt in
    List.iteri
      (fun i item ->
        if i >= n then runtime_error "too many initializers";
        eval_init m ctx elt (addr + (i * sz)) item)
      items
  | Types.Tstruct tag, Ast.Ilist items ->
    let c = Types.find_composite comps loc tag in
    List.iteri
      (fun i item ->
        match List.nth_opt c.Types.cfields i with
        | None -> runtime_error "too many initializers for struct %s" tag
        | Some (fname, ft) ->
          let off, _ = Types.field_offset comps loc tag fname in
          eval_init m ctx ft (addr + off) item)
      items
  | _ -> runtime_error "invalid initializer shape"

(** Compile a program into a runnable machine. *)
let load (prog : Ast.program) : t =
  let st = make_state () in
  let m = { st; prog; funs = Hashtbl.create 16; inits = [] } in
  let env = Typecheck.make_env prog in
  let ret = { r_int = 0; r_long = 0L; r_float = new_cell () } in
  (* Allocate all globals first so compiled code can reference them. *)
  List.iter
    (fun (name, t, _) ->
      let size = Types.sizeof prog.Ast.comps Loc.dummy t in
      Hashtbl.replace st.global_addrs name (Memory.alloc st.mem size))
    (Ast.global_vars prog);
  (* Pre-register function slots for mutual recursion. *)
  List.iter
    (fun (f : Ast.fundef) -> Hashtbl.replace m.funs f.Ast.fname (ref None))
    (Ast.functions prog);
  (* Compile each function. *)
  List.iter
    (fun (f : Ast.fundef) ->
      let fe = Typecheck.fenv_of env f in
      let frame_size, slot_list = frame_layout prog.Ast.comps f in
      let slots = Hashtbl.create 16 in
      List.iter (fun (n, (off, _)) -> Hashtbl.replace slots n off) slot_list;
      (* register-allocatable locals: scalar and never address-taken *)
      let regs = Hashtbl.create 16 in
      let addr_taken = Hashtbl.create 8 in
      let rec scan_at_exp (e : Ast.exp) =
        match e with
        | Ast.Addr lv -> scan_at_lval_addr lv
        | Ast.Lval (_, lv) -> scan_at_lval lv
        | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.SizeofExp a -> scan_at_exp a
        | Ast.Binop (_, a, b) ->
          scan_at_exp a;
          scan_at_exp b
        | Ast.Cond (a, b, c) ->
          scan_at_exp a;
          scan_at_exp b;
          scan_at_exp c
        | Ast.Call (_, args) -> List.iter scan_at_exp args
        | Ast.Const _ | Ast.SizeofType _ -> ()
      and scan_at_lval_addr lv =
        (match lv with
        | Ast.Var x -> Hashtbl.replace addr_taken x ()
        | _ -> ());
        scan_at_lval lv
      and scan_at_lval lv =
        match lv with
        | Ast.Var _ -> ()
        | Ast.Deref e -> scan_at_exp e
        | Ast.Index (b, i) ->
          scan_at_lval b;
          scan_at_exp i
        | Ast.Field (b, _) -> scan_at_lval b
      in
      ignore
        (Visit.map_stmt_exps
           ~fe:(fun e ->
             scan_at_exp e;
             e)
           ~flv:(fun lv ->
             scan_at_lval lv;
             lv)
           f.Ast.fbody);
      List.iter
        (fun (x, t) ->
          if Types.is_scalar (Types.decay t) && not (Hashtbl.mem addr_taken x)
          then
            match t with
            | Types.Tarray _ -> ()
            | _ -> Hashtbl.replace regs x ())
        (f.Ast.fformals @ f.Ast.flocals);
      let ctx = { m; fe; slots; regs; ret } in
      let body = compile_stmt ctx f.Ast.fbody in
      if List.compare_lengths f.Ast.fformals f.Ast.fformal_aids <> 0 then
        invalid_arg
          (Printf.sprintf "load: formals of %s have no access ids" f.Ast.fname);
      let formals =
        List.map2
          (fun (n, _) aid ->
            let off, t = List.assoc n slot_list in
            let width = if Types.is_scalar t then scalar_width Loc.dummy t else 0 in
            (off, aid, width))
          f.Ast.fformals f.Ast.fformal_aids
      in
      (Hashtbl.find m.funs f.Ast.fname) :=
        Some
          {
            cf_frame_size = frame_size;
            cf_formals = Array.of_list formals;
            cf_body = body;
            cf_ret_kind =
              (match f.Ast.freturn with
              | Types.Tvoid -> None
              | t -> Some (kind_of Loc.dummy t));
            cf_ret = ret;
          })
    (Ast.functions prog);
  (* Global initializers run in declaration order in a pseudo-frame. *)
  let dummy_fun =
    {
      Ast.fname = "__global_init";
      freturn = Types.Tvoid;
      fformals = [];
      fformal_aids = [];
      flocals = [];
      fbody = Ast.skip;
    }
  in
  let init_ctx =
    {
      m;
      fe = Typecheck.fenv_of env dummy_fun;
      slots = Hashtbl.create 1;
      regs = Hashtbl.create 1;
      ret;
    }
  in
  m.inits <-
    List.filter_map
      (fun (name, t, ini) ->
        Option.map
          (fun ini ->
            let addr = Hashtbl.find st.global_addrs name in
            fun () -> eval_init m init_ctx t addr ini)
          ini)
      (Ast.global_vars prog);
  m

(** Run [main]; returns the exit code. *)
let run (m : t) : int =
  List.iter (fun f -> f ()) m.inits;
  match Hashtbl.find_opt m.funs "main" with
  | None | Some { contents = None } -> runtime_error "no main function"
  | Some { contents = Some cf } -> (
    if Array.length cf.cf_formals > 0 then
      runtime_error "main must take no arguments";
    let base = (m.st.sp + 7) land lnot 7 in
    m.st.sp <- base + cf.cf_frame_size;
    m.st.frame <- base;
    try
      match cf.cf_body () with
      | () -> 0
      | exception Return_exc -> (
        let r = cf.cf_ret in
        match cf.cf_ret_kind with
        | Some Klong -> Int64.to_int r.r_long
        | Some Kfloat ->
          runtime_error "expected an integer value, got float %g" r.r_float.fv
        | Some Kint | None -> r.r_int)
    with Exit_program code -> code)

(** Convenience: load + run, returning (exit code, captured stdout). *)
let run_program (prog : Ast.program) : int * string =
  let m = load prog in
  let code = run m in
  (code, output m.st)
