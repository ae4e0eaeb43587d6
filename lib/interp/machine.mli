(** The MiniC abstract machine.

    Programs are compiled once into OCaml closures, each expression by
    its static type: [char]/[short]/[int] and pointer expressions
    evaluate to immediate OCaml ints (so pointers must lie within
    ±2{^62}), conditions to [bool], [float]/[double] expressions into
    flat float cells allocated at load time, and only [long] values
    are boxed, once per value. The machine is deterministic and
    instrumented: every dynamic memory access reports (access id,
    kind, address, size) to an optional observer (the dependence
    profiler); every access may be surcharged by an optional
    access-cost hook (the cache model); loops report
    enter/iteration/exit events; frees report (base, size); cycle and
    instruction-class counters implement the cost model described in
    DESIGN.md. With no hook set, and with hooks that do not allocate
    themselves, running [char]/[short]/[int]/pointer and
    [float]/[double] code allocates nothing per access, operation,
    loop iteration or user-function call (builtins such as [printf]
    and [malloc] still do). Comparisons with a floating operand follow
    C: with a NaN operand only [!=] holds. *)

open Minic

type stats = {
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_arith : int;
  mutable n_branches : int;
  mutable n_calls : int;
  mutable n_allocs : int;
}

(** A loop hook receives [(lid, event, i)]. [Iter] fires {e before}
    iteration [i]'s condition is evaluated, so condition accesses
    attribute to the iteration about to run; a loop that exits via its
    condition reports one trailing [Iter]. A loop left by [break] or
    [return] reports [Exit] too; one left by a runtime error or by
    [exit] does not. [i] is 0 with [Enter] and [Exit]. The iteration
    travels as a plain [int] argument so that a hook call allocates
    nothing. *)
type loop_event = Enter | Iter | Exit

type state = {
  mem : Memory.t;
  out : Buffer.t;  (** captured program stdout *)
  global_addrs : (string, int) Hashtbl.t;
  stack_base : int;
  stack_limit : int;
  mutable sp : int;
  mutable frame : int;
  mutable cycles : int;
  stats : stats;
  mutable observer : (Ast.aid -> Visit.access_kind -> int -> int -> unit) option;
      (** fires on every access; for stores it fires {e after} the
          write, so an observer may read the just-stored value *)
  mutable access_extra : (Visit.access_kind -> int -> int -> int) option;
  mutable loop_hook : (Ast.lid -> loop_event -> int -> unit) option;
  mutable free_hook : (int -> int -> unit) option;
  mutable alloc_hook : (Ast.aid option -> int -> int -> unit) option;
      (** (ret-store aid, base, requested size) after malloc / calloc /
          realloc; the aid is that of the call's return-value store *)
  mutable rand_state : int64;
  mutable fuel : int;  (** decremented per loop iteration and call *)
  mutable iter_skip : bool;
      (** set by a loop hook at [Iter] to skip that iteration's body
          while still running the condition and step; the domain
          executor walks a distributed loop's traversal with this,
          executing only the chunks it owns. Cleared automatically
          after each iteration *)
  mutable bulk_hook : (int -> int option -> int -> unit) option;
      (** (dst, src, len) after a bulk byte move — memset (src =
          [None]), memcpy, and the copying half of realloc; complements
          [observer], which only reports scalar accesses *)
  mutable read_hook : (int -> int -> unit) option;
      (** (addr, len) after a builtin reads a C string, terminator
          included — strlen, puts, and printf's format and [%s]
          arguments; builtins have no access id, so [observer] never
          sees these reads *)
}

exception Runtime_error of string
exception Exit_program of int

(** A loaded (closure-compiled) program with its execution state. *)
type t = {
  st : state;
  prog : Ast.program;
  funs : (string, cfun option ref) Hashtbl.t;
  mutable inits : (unit -> unit) list;
}

and cfun

(** Address of a global variable.
    @raise Runtime_error for unknown names. *)
val global_addr : state -> string -> int

(** Poke/peek int globals from the host (the parallel simulator sets
    [__tid] between iterations and [__nthreads] before the run). *)
val set_global_int : state -> string -> int -> unit

val get_global_int : state -> string -> int

(** Captured stdout so far. *)
val output : state -> string

(** Compile-time constant folding over integer literals and [sizeof]. *)
val fold_constants : Types.composite_env -> Ast.exp -> Ast.exp

(** Compile a type-checked program into a runnable machine. Loading
    only reads the program: an argument-binding store reports the
    formal's id from [Ast.fundef.fformal_aids], drawn when the program
    was built, so every machine loaded from one program reports the
    same ids, however many were loaded before it.
    @raise Invalid_argument if a function's formals have no ids (the
    program was not type-checked). *)
val load : Ast.program -> t

(** Run [main] (after global initializers); returns the exit code. *)
val run : t -> int

(** [load] + [run], returning (exit code, captured stdout). *)
val run_program : Ast.program -> int * string
