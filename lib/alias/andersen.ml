(** Andersen-style inclusion-based points-to analysis for MiniC.

    Flow- and context-insensitive, field-insensitive (a struct object
    is one abstract location). §3.4 of the paper uses alias analysis
    for two things, both served here:

    - find every {e abstract object} a private memory access may touch
      (the expansion set: which data structures get expanded);
    - find which pointers may point to an expanded object (selective
      promotion: only those carry a span).

    Abstract locations are named variables (locals qualified by their
    function) and heap allocation sites (identified by the access id of
    the call's result store). *)

open Minic

type loc =
  | LVar of string  (** "fn::x" for locals/formals, "x" for globals *)
  | LAlloc of Ast.aid  (** malloc/calloc/realloc site *)
  | LRet of string  (** return value node of a function *)
[@@deriving show { with_path = false }, eq, ord]

module LocSet = Set.Make (struct
  type t = loc

  let compare = compare_loc
end)

(* Inclusion constraints:
   - Base  (l, p)        : l ∈ pts(p)
   - Copy  (p, q)        : pts(p) ⊇ pts(q)
   - Load  (p, q)        : ∀v ∈ pts(q). pts(p) ⊇ pts(v)     [p = deref q]
   - Store (p, q)        : ∀v ∈ pts(p). pts(v) ⊇ pts(q)     [deref p = q] *)
type constr =
  | Base of loc * loc
  | Copy of loc * loc
  | Load of loc * loc
  | Store of loc * loc

type result = {
  pts : (loc, LocSet.t) Hashtbl.t;
  allocs : (Ast.aid * string) list;  (** alloc site and callee name *)
}

let points_to (r : result) (l : loc) : LocSet.t =
  Option.value ~default:LocSet.empty (Hashtbl.find_opt r.pts l)

(* ------------------------------------------------------------------ *)
(* Constraint generation                                               *)
(* ------------------------------------------------------------------ *)

type genv = {
  prog : Ast.program;
  mutable constrs : constr list;
  mutable allocs : (Ast.aid * string) list;
  mutable fresh : int;
}

let add g c = g.constrs <- c :: g.constrs

let fresh_node g =
  g.fresh <- g.fresh + 1;
  LVar (Printf.sprintf "$tmp%d" g.fresh)

(** The abstract node standing for variable [x] in function [fn]:
    locals/formals are qualified, globals are not. *)
let var_node (f : Ast.fundef) (x : string) : loc =
  let local =
    List.mem_assoc x f.Ast.fformals || List.mem_assoc x f.Ast.flocals
  in
  if local then LVar (f.Ast.fname ^ "::" ^ x) else LVar x

(* [exp_targets] returns a node whose pts over-approximates the
   pointer values of an expression (fresh nodes glue subterms). *)

(** A node N with pts(N) = possible pointer values of [e]. *)
let rec exp_targets g (f : Ast.fundef) (e : Ast.exp) : loc =
  match e with
  | Ast.Const _ | Ast.SizeofType _ | Ast.SizeofExp _ ->
    fresh_node g (* empty *)
  | Ast.Addr lv -> (
    match lv with
    | Ast.Deref inner ->
      (* &*p (possibly with index/field offsets) = p *)
      exp_targets g f inner
    | Ast.Index (b, i) ->
      ignore (exp_targets g f i);
      exp_targets g f (Ast.Addr b)
    | Ast.Field (b, _) -> exp_targets g f (Ast.Addr b)
    | Ast.Var x ->
      let n = fresh_node g in
      add g (Base (var_node f x, n));
      n)
  | Ast.Lval (_, lv) -> (
    (* value loaded from lv *)
    match lv with
    | Ast.Var x -> var_node f x
    | Ast.Deref e ->
      let n = fresh_node g in
      add g (Load (n, exp_targets g f e));
      n
    | Ast.Index (b, i) ->
      ignore (exp_targets g f i);
      (* contents of an array element: field-insensitively, the
         contents of the array object *)
      let n = fresh_node g in
      add g (Load (n, exp_targets g f (Ast.Addr b)));
      n
    | Ast.Field (b, _) ->
      let n = fresh_node g in
      add g (Load (n, exp_targets g f (Ast.Addr b)));
      n)
  | Ast.Unop (_, a) ->
    ignore (exp_targets g f a);
    fresh_node g
  | Ast.Binop ((Ast.Add | Ast.Sub), a, b) ->
    (* pointer arithmetic: result aliases either side *)
    let n = fresh_node g in
    add g (Copy (n, exp_targets g f a));
    add g (Copy (n, exp_targets g f b));
    n
  | Ast.Binop (_, a, b) ->
    ignore (exp_targets g f a);
    ignore (exp_targets g f b);
    fresh_node g
  | Ast.Cast (_, a) -> exp_targets g f a
  | Ast.Cond (c, a, b) ->
    ignore (exp_targets g f c);
    let n = fresh_node g in
    add g (Copy (n, exp_targets g f a));
    add g (Copy (n, exp_targets g f b));
    n
  | Ast.Call (_, _) -> fresh_node g (* hoisted by the checker *)

(** pts(target-of-lv) ⊇ pts(rhs-node): an assignment [lv = ...]. *)
let assign_into g (f : Ast.fundef) (lv : Ast.lval) (rhs : loc) : unit =
  match lv with
  | Ast.Var x -> add g (Copy (var_node f x, rhs))
  | Ast.Deref e -> add g (Store (exp_targets g f e, rhs))
  | Ast.Index (b, _) | Ast.Field (b, _) -> (
    (* storing into part of an object: *(&b) gets the value *)
    match b with
    | Ast.Var x -> add g (Copy (var_node f x, rhs))
    | _ -> add g (Store (exp_targets g f (Ast.Addr b), rhs)))

let is_alloc_name = function
  | "malloc" | "calloc" | "realloc" -> true
  | _ -> false

let rec gen_stmt g (f : Ast.fundef) (s : Ast.stmt) : unit =
  match s.Ast.skind with
  | Ast.Sskip | Ast.Sbreak | Ast.Scontinue -> ()
  | Ast.Sassign (_, lv, e) -> assign_into g f lv (exp_targets g f e)
  | Ast.Scall (ret, callee, args) -> (
    (match Ast.find_fun g.prog callee with
    | Some fd ->
      (* bind arguments to formals *)
      List.iter2
        (fun (formal, _) arg ->
          add g (Copy (LVar (callee ^ "::" ^ formal), exp_targets g f arg)))
        fd.Ast.fformals args;
      (match ret with
      | Some (_, lv) -> assign_into g f lv (LRet callee)
      | None -> ())
    | None ->
      (* builtin *)
      List.iter (fun a -> ignore (exp_targets g f a)) args;
      if is_alloc_name callee then (
        match ret with
        | Some (aid, lv) ->
          g.allocs <- (aid, callee) :: g.allocs;
          let n = fresh_node g in
          add g (Base (LAlloc aid, n));
          (* realloc may return (a copy of) its argument's object *)
          (if String.equal callee "realloc" then
             match args with
             | p :: _ -> add g (Copy (n, exp_targets g f p))
             | [] -> ());
          assign_into g f lv n
        | None -> ())
      else if String.equal callee "memcpy" then (
        (* *dst gets whatever *src holds *)
        match args with
        | [ d; s; _ ] ->
          let tmp = fresh_node g in
          add g (Load (tmp, exp_targets g f s));
          add g (Store (exp_targets g f d, tmp))
        | _ -> ())
      else
        match ret with
        | Some (_, lv) -> assign_into g f lv (fresh_node g)
        | None -> ()))
  | Ast.Sseq ss -> List.iter (gen_stmt g f) ss
  | Ast.Sif (c, a, b) ->
    ignore (exp_targets g f c);
    gen_stmt g f a;
    gen_stmt g f b
  | Ast.Swhile (_, c, body) ->
    ignore (exp_targets g f c);
    gen_stmt g f body
  | Ast.Sfor (_, init, c, step, body) ->
    gen_stmt g f init;
    ignore (exp_targets g f c);
    gen_stmt g f step;
    gen_stmt g f body
  | Ast.Sreturn None -> ()
  | Ast.Sreturn (Some e) -> add g (Copy (LRet f.Ast.fname, exp_targets g f e))

(* ------------------------------------------------------------------ *)
(* Solver: standard worklist over the inclusion constraint graph       *)
(* ------------------------------------------------------------------ *)

let solve (constrs : constr list) : (loc, LocSet.t) Hashtbl.t =
  let pts : (loc, LocSet.t) Hashtbl.t = Hashtbl.create 128 in
  let get n = Option.value ~default:LocSet.empty (Hashtbl.find_opt pts n) in
  let copies : (loc, loc list) Hashtbl.t = Hashtbl.create 128 in
  let add_copy ~dst ~src =
    Hashtbl.replace copies src
      (dst :: Option.value ~default:[] (Hashtbl.find_opt copies src))
  in
  let loads = ref [] and stores = ref [] in
  let work = Queue.create () in
  let update n set =
    let old = get n in
    let merged = LocSet.union old set in
    if not (LocSet.equal old merged) then begin
      Hashtbl.replace pts n merged;
      Queue.push n work
    end
  in
  List.iter
    (function
      | Base (l, n) -> update n (LocSet.singleton l)
      | Copy (dst, src) -> add_copy ~dst ~src
      | Load (dst, src) -> loads := (dst, src) :: !loads
      | Store (dst, src) -> stores := (dst, src) :: !stores)
    constrs;
  (* complex constraints are re-checked whenever any node changes; the
     programs are small enough that this simple strategy converges fast *)
  let stable = ref false in
  while not !stable do
    (* drain the copy-propagation worklist *)
    while not (Queue.is_empty work) do
      let n = Queue.pop work in
      let set = get n in
      List.iter
        (fun dst -> update dst set)
        (Option.value ~default:[] (Hashtbl.find_opt copies n))
    done;
    stable := true;
    List.iter
      (fun (dst, src) ->
        LocSet.iter (fun v -> update dst (get v)) (get src))
      !loads;
    List.iter
      (fun (dst, src) ->
        let rhs = get src in
        LocSet.iter (fun v -> update v rhs) (get dst))
      !stores;
    if not (Queue.is_empty work) then stable := false
  done;
  pts

(** Run the analysis over a whole (type-checked) program. *)
let analyze (prog : Ast.program) : result =
  let g = { prog; constrs = []; allocs = []; fresh = 0 } in
  List.iter (fun f -> gen_stmt g f f.Ast.fbody) (Ast.functions prog);
  (* global initializers may take addresses *)
  let dummy =
    {
      Ast.fname = "__globals";
      freturn = Types.Tvoid;
      fformals = [];
      fformal_aids = [];
      flocals = [];
      fbody = Ast.skip;
    }
  in
  List.iter
    (fun (name, _, ini) ->
      match ini with
      | Some ini ->
        let rec go = function
          | Ast.Iexp e -> assign_into g dummy (Ast.Var name) (exp_targets g dummy e)
          | Ast.Ilist l -> List.iter go l
        in
        go ini
      | None -> ())
    (Ast.global_vars prog);
  { pts = solve g.constrs; allocs = g.allocs }

(* ------------------------------------------------------------------ *)
(* Queries used by the expansion pass                                  *)
(* ------------------------------------------------------------------ *)

(* Evaluate a small delta constraint set against the solved graph;
   fresh nodes introduced by the query are solved to fixpoint while
   program nodes keep their global solution. *)
let eval_delta (r : result) (g : genv) (n : loc) : LocSet.t =
  let pts = Hashtbl.copy r.pts in
  let get m = Option.value ~default:LocSet.empty (Hashtbl.find_opt pts m) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        let upd dst set =
          let old = get dst in
          let merged = LocSet.union old set in
          if not (LocSet.equal old merged) then begin
            Hashtbl.replace pts dst merged;
            changed := true
          end
        in
        match c with
        | Base (l, m) -> upd m (LocSet.singleton l)
        | Copy (dst, src) -> upd dst (get src)
        | Load (dst, src) -> LocSet.iter (fun v -> upd dst (get v)) (get src)
        | Store (dst, src) ->
          let rhs = get src in
          LocSet.iter (fun v -> upd v rhs) (get dst))
      g.constrs
  done;
  get n

(** Pointer targets of an arbitrary expression, evaluated against the
    solved points-to graph. *)
let targets_of_exp (r : result) (prog : Ast.program) (f : Ast.fundef)
    (e : Ast.exp) : LocSet.t =
  let g = { prog; constrs = []; allocs = []; fresh = 1_000_000 } in
  let n = exp_targets g f e in
  eval_delta r g n

(** Abstract objects an access to [lv] (in function [f]) may touch. *)
let objects_of_lval (r : result) (prog : Ast.program) (f : Ast.fundef)
    (lv : Ast.lval) : LocSet.t =
  let rec root (lv : Ast.lval) : [ `Var of string | `Ptr of Ast.exp ] =
    match lv with
    | Ast.Var x -> `Var x
    | Ast.Deref e -> `Ptr e
    | Ast.Index (b, _) | Ast.Field (b, _) -> root b
  in
  match root lv with
  | `Var x ->
    let local =
      List.mem_assoc x f.Ast.fformals || List.mem_assoc x f.Ast.flocals
    in
    LocSet.singleton (LVar (if local then f.Ast.fname ^ "::" ^ x else x))
  | `Ptr e -> targets_of_exp r prog f e

(** May [node] point to any location in [targets]? Drives selective
    promotion. *)
let may_point_into (r : result) (node : loc) (targets : LocSet.t) : bool =
  not (LocSet.is_empty (LocSet.inter (points_to r node) targets))
