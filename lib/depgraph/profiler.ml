(** Dynamic data-dependence profiling.

    The paper obtains its loop-level dependence graphs from off-line
    profiling runs ([38,39] in its references) followed by manual
    verification; this module plays that role. It executes the program
    once under the interpreter's access observer and builds the exact
    graph of Definition 1 at byte granularity:

    - a read of a byte last written in the same iteration is a
      loop-independent flow dependence; written in an earlier iteration,
      a loop-carried one (the "covered by previous writes in the same
      iteration" clause falls out of tracking the most recent write);
    - a write over a byte read since its last write yields anti
      dependences (carried iff the read was in an earlier iteration);
    - a write over a previously written byte yields an output
      dependence;
    - a read with no in-loop write before it is upwards-exposed; a
      value written in the loop and read after the loop exits marks its
      writer downwards-exposed.

    Byte granularity makes recasting idioms (bzip2's short/int [zptr])
    profile correctly. *)

open Minic

type profile = {
  graph : Graph.t;
  stats : Interp.Machine.stats;  (** whole-program instruction counts *)
  exit_code : int;
  output : string;
  peak_bytes : int;
}

(** Function names called within a statement. *)
let calls_of_stmt (s : Ast.stmt) : string list =
  let acc = ref [] in
  ignore
    (Visit.map_stmt
       (fun s ->
         (match s.Ast.skind with
         | Ast.Scall (_, f, _) -> acc := f :: !acc
         | _ -> ());
         s)
       s);
  !acc

(** Functions transitively reachable from calls inside [stmt]. *)
let reachable_funs (prog : Ast.program) (stmt : Ast.stmt) : Ast.fundef list =
  let seen = Hashtbl.create 8 in
  let rec visit names =
    List.iter
      (fun name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          match Ast.find_fun prog name with
          | Some f -> visit (calls_of_stmt f.Ast.fbody)
          | None -> () (* builtin *)
        end)
      names
  in
  visit (calls_of_stmt stmt);
  List.filter (fun f -> Hashtbl.mem seen f.Ast.fname) (Ast.functions prog)

(** Static access sites of a loop: its body and condition (+ step for
    for-loops; the for-init runs outside the iteration space), plus
    the bodies of all functions transitively callable from the loop —
    Definition 1's vertex set is "all memory accesses potentially
    executed in the loop". *)
let loop_sites (prog : Ast.program) (loop_stmt : Ast.stmt) : Graph.site list =
  let of_access (a : Visit.access) =
    {
      Graph.s_aid = a.Visit.acc_aid;
      s_kind = a.Visit.acc_kind;
      s_text = Pretty.lval_text a.Visit.acc_lval;
    }
  in
  let exp_accesses e =
    List.rev (Visit.fold_exp_accesses (fun acc a -> a :: acc) [] e)
  in
  let direct =
    match loop_stmt.Ast.skind with
    | Ast.Swhile (_, c, body) -> exp_accesses c @ Visit.accesses_of_stmt body
    | Ast.Sfor (_, _, c, step, body) ->
      exp_accesses c @ Visit.accesses_of_stmt step
      @ Visit.accesses_of_stmt body
    | _ -> invalid_arg "loop_sites: not a loop"
  in
  let callee =
    List.concat_map Visit.accesses_of_fun (reachable_funs prog loop_stmt)
  in
  List.map of_access (direct @ callee)

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* Every byte the loop touches has a shadow in a page of the shared
   {!Interp.Shadow} memory, allocated on first in-loop access: its
   last in-loop writer (aid, -1 when none since the last out-of-loop
   store or free), that write's iteration and invocation, and the head
   of its reader set (-1 when empty).

   The per-access path allocates nothing: its helpers are top-level
   functions over ints (a local closure would be allocated on every
   call), and the small ones are inlined. *)
let page_mask = Interp.Shadow.page_mask
let no_page = Interp.Shadow.no_page
let f_writer = 0
let f_iter = 1
let f_inv = 2
let f_readers = 3
let byte_fields = 4

(* A reader set is a linked list of nodes in one int pool, one node per
   site aid that read the byte in the set's invocation: its lowest and
   highest iteration, the invocation and the next node (-1 ends). *)
let n_aid = 0
let n_lo = 1
let n_hi = 2
let n_inv = 3
let n_next = 4
let node_fields = 5

type shadow = {
  bytes : Interp.Shadow.t;
  mutable nodes : int array;
  mutable free : int;  (** first free node, -1 when none *)
  mutable fresh : int;  (** first never-used node *)
}

let shadow_create () =
  {
    bytes = Interp.Shadow.create ~fields:byte_fields ~init:(-1);
    nodes = Array.make (node_fields * 1024) 0;
    free = -1;
    fresh = 0;
  }

let alloc_node sh =
  if sh.free >= 0 then begin
    let n = sh.free in
    sh.free <- sh.nodes.(n + n_next);
    n
  end
  else begin
    if sh.fresh + node_fields > Array.length sh.nodes then begin
      let nodes = Array.make (2 * Array.length sh.nodes) 0 in
      Array.blit sh.nodes 0 nodes 0 sh.fresh;
      sh.nodes <- nodes
    end;
    let n = sh.fresh in
    sh.fresh <- n + node_fields;
    n
  end

let rec last_node nodes n =
  let next = nodes.(n + n_next) in
  if next < 0 then n else last_node nodes next

let rec find_node nodes aid n =
  if n < 0 || nodes.(n + n_aid) = aid then n
  else find_node nodes aid nodes.(n + n_next)

(* Empty the reader set of the byte at offset [o] of page [p]. *)
let[@inline] clear_readers sh p o =
  let h = p.(o + f_readers) in
  if h >= 0 then begin
    sh.nodes.(last_node sh.nodes h + n_next) <- sh.free;
    sh.free <- h;
    p.(o + f_readers) <- -1
  end

(* Record a read by site [aid] in iteration [iter] of invocation [inv];
   a set left from an earlier invocation is dropped first, since a
   store only pairs with readers of its own invocation. *)
let[@inline] add_reader sh p o aid iter inv =
  let h = p.(o + f_readers) in
  if h >= 0 && sh.nodes.(h + n_inv) <> inv then clear_readers sh p o;
  let nodes = sh.nodes in
  let n = find_node nodes aid p.(o + f_readers) in
  if n >= 0 then begin
    if iter > nodes.(n + n_hi) then nodes.(n + n_hi) <- iter
    else if iter < nodes.(n + n_lo) then nodes.(n + n_lo) <- iter
  end
  else begin
    let n = alloc_node sh in
    let nodes = sh.nodes in
    nodes.(n + n_aid) <- aid;
    nodes.(n + n_lo) <- iter;
    nodes.(n + n_hi) <- iter;
    nodes.(n + n_inv) <- inv;
    nodes.(n + n_next) <- p.(o + f_readers);
    p.(o + f_readers) <- n
  end

(* ------------------------------------------------------------------ *)
(* Edge filter                                                         *)
(* ------------------------------------------------------------------ *)

(* [Graph.add_edge] allocates an edge and hashes it, and a loop calls
   it millions of times for a few hundred distinct edges. The filter
   packs each edge into an int key and keeps the keys it has passed on
   in an open-addressing table, so a repeat costs a probe and no
   allocation. *)
type filter = {
  graph : Graph.t;
  n_aids : int;
  mutable keys : int array;  (** power-of-two size; -1 is an empty slot *)
  mutable size : int;
  mutable last : int;  (** the latest key, which the next one often repeats *)
}

let filter_create graph n_aids =
  { graph; n_aids; keys = Array.make 1024 (-1); size = 0; last = -1 }

let[@inline] kind_code = function
  | Graph.Flow -> 0
  | Graph.Anti -> 1
  | Graph.Output -> 2

let[@inline] edge_key f ~src ~dst ~kind ~carried =
  (((((src * f.n_aids) + dst) * 3) + kind_code kind) * 2)
  + Bool.to_int carried

let rec probe keys key i =
  let k = keys.(i) in
  if k = key || k < 0 then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

(* The slot holding [key], or the empty slot it would go in. *)
let[@inline] slot keys key =
  let h = key * 0x4F1BBCDCBFA53E0B in
  probe keys key ((h lxor (h lsr 31)) land (Array.length keys - 1))

let grow f =
  let old = f.keys in
  f.keys <- Array.make (2 * Array.length old) (-1);
  Array.iter (fun k -> if k >= 0 then f.keys.(slot f.keys k) <- k) old

let[@inline] add_edge f ~src ~dst ~kind ~carried =
  let key = edge_key f ~src ~dst ~kind ~carried in
  if key <> f.last then begin
    f.last <- key;
    let i = slot f.keys key in
    if f.keys.(i) <> key then begin
      Graph.add_edge f.graph ~src ~dst ~kind ~carried;
      f.keys.(i) <- key;
      f.size <- f.size + 1;
      if 4 * f.size > Array.length f.keys then grow f
    end
  end

(* Anti edges from the reader set from node [n] on to a store by [aid]
   in iteration [iter]. A read in an earlier iteration makes the edge
   carried and one in this iteration makes it independent, so
   [lo < iter] and [hi >= iter] decide both edges exactly. *)
let rec add_anti f nodes aid iter n =
  if n >= 0 then begin
    let raid = nodes.(n + n_aid) in
    if nodes.(n + n_lo) < iter then
      add_edge f ~src:raid ~dst:aid ~kind:Graph.Anti ~carried:true;
    if nodes.(n + n_hi) >= iter then
      add_edge f ~src:raid ~dst:aid ~kind:Graph.Anti ~carried:false;
    add_anti f nodes aid iter nodes.(n + n_next)
  end

(* ------------------------------------------------------------------ *)
(* The profiler                                                        *)
(* ------------------------------------------------------------------ *)

(** Profile [lid] by running the whole program once. *)
let profile (prog : Ast.program) (lid : Ast.lid) : profile =
  Telemetry.Span.wall "phase.profile" @@ fun () ->
  let loop_stmt =
    match Visit.find_loop_fun prog lid with
    | Some (_, s) -> s
    | None -> invalid_arg (Printf.sprintf "profile: no loop with id %d" lid)
  in
  let g = Graph.create lid (loop_sites prog loop_stmt) in
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  (* loading stamps the formals' aids, so every aid the run reports is
     below [next_aid] from here on *)
  let n_aids = prog.Ast.next_aid in
  let is_site = Array.make n_aids false in
  List.iter (fun s -> is_site.(s.Graph.s_aid) <- true) g.Graph.sites;
  let counts = Array.make n_aids 0 in
  (* exposure marks and dynamic counts reach the graph's tables on
     their first occurrence, so the tables fill in the order they
     always have; the final counts are written after the run *)
  let mark add =
    let seen = Array.make n_aids false in
    fun aid ->
      if not seen.(aid) then begin
        seen.(aid) <- true;
        add g aid
      end
  in
  let mark_up = mark Graph.mark_upwards_exposed in
  let mark_down = mark Graph.mark_downwards_exposed in
  let mark_killed = mark Graph.mark_killed_after_loop in
  let f = filter_create g n_aids in
  let sh = shadow_create () in
  let in_loop = ref false in
  let cur_iter = ref 0 in
  let cur_inv = ref (-1) in
  let enter_cycles = ref 0 in
  let hook l ev i =
    if l = lid then
      match ev with
      | Interp.Machine.Enter ->
        in_loop := true;
        incr cur_inv;
        cur_iter := 0;
        g.Graph.invocations <- g.Graph.invocations + 1;
        enter_cycles := st.Interp.Machine.cycles
      | Interp.Machine.Iter -> cur_iter := i
      | Interp.Machine.Exit ->
        in_loop := false;
        (* the trailing Iter only ran the failing condition *)
        g.Graph.iterations <- g.Graph.iterations + !cur_iter;
        g.Graph.loop_cycles <-
          g.Graph.loop_cycles + (st.Interp.Machine.cycles - !enter_cycles)
  in
  let load_byte aid site iter inv p o =
    let w = p.(o + f_writer) in
    if w >= 0 then begin
      if p.(o + f_inv) = inv then
        add_edge f ~src:w ~dst:aid ~kind:Graph.Flow
          ~carried:(p.(o + f_iter) < iter)
      else begin
        (* written by a previous invocation, read by this one:
           live-out of the loop and live-in to it *)
        mark_down w;
        mark_up aid
      end
    end
    else mark_up aid;
    (* only a site's read can source an anti edge *)
    if site then add_reader sh p o aid iter inv
  in
  let store_byte aid iter inv p o =
    let w = p.(o + f_writer) in
    if w >= 0 && p.(o + f_inv) = inv then
      add_edge f ~src:w ~dst:aid ~kind:Graph.Output
        ~carried:(p.(o + f_iter) < iter);
    let h = p.(o + f_readers) in
    if h >= 0 then begin
      if sh.nodes.(h + n_inv) = inv then add_anti f sh.nodes aid iter h;
      clear_readers sh p o
    end;
    p.(o + f_writer) <- aid;
    p.(o + f_iter) <- iter;
    p.(o + f_inv) <- inv
  in
  let observe aid kind addr size =
    if !in_loop then begin
      let site = is_site.(aid) in
      if site then begin
        if counts.(aid) = 0 then Hashtbl.replace g.Graph.dyn_counts aid 0;
        counts.(aid) <- counts.(aid) + 1
      end;
      let iter = !cur_iter and inv = !cur_inv in
      (* fetch the page again where the access crosses into the next *)
      let p = ref (Interp.Shadow.page sh.bytes addr) in
      match kind with
      | Visit.Load ->
        for a = addr to addr + size - 1 do
          if a land page_mask = 0 then p := Interp.Shadow.page sh.bytes a;
          load_byte aid site iter inv !p ((a land page_mask) * byte_fields)
        done
      | Visit.Store ->
        for a = addr to addr + size - 1 do
          if a land page_mask = 0 then p := Interp.Shadow.page sh.bytes a;
          store_byte aid iter inv !p ((a land page_mask) * byte_fields)
        done
    end
    else begin
      (* the same walk, but never allocating a page *)
      let p = ref (Interp.Shadow.find_page sh.bytes addr) in
      match kind with
      | Visit.Load ->
        for a = addr to addr + size - 1 do
          if a land page_mask = 0 then p := Interp.Shadow.find_page sh.bytes a;
          if !p != no_page then begin
            let w = !p.(((a land page_mask) * byte_fields) + f_writer) in
            if w >= 0 then mark_down w
          end
        done
      | Visit.Store ->
        for a = addr to addr + size - 1 do
          if a land page_mask = 0 then p := Interp.Shadow.find_page sh.bytes a;
          if !p != no_page then begin
            let o = (a land page_mask) * byte_fields in
            let w = !p.(o + f_writer) in
            (* overwriting an in-loop value that was never read after
               the loop: a loop-boundary output dependence *)
            if w >= 0 then mark_killed w;
            !p.(o + f_writer) <- -1;
            clear_readers sh !p o
          end
        done
    end
  in
  st.Interp.Machine.loop_hook <- Some hook;
  st.Interp.Machine.observer <- Some observe;
  (* a freed block's bytes carry no dependences into whatever is
     allocated there next: a thread-safe allocator would hand parallel
     threads distinct blocks (this is also what the paper's manual
     graph verification discards) *)
  st.Interp.Machine.free_hook <-
    Some
      (fun base size ->
        let p = ref (Interp.Shadow.find_page sh.bytes base) in
        for a = base to base + size - 1 do
          if a land page_mask = 0 then p := Interp.Shadow.find_page sh.bytes a;
          if !p != no_page then begin
            let o = (a land page_mask) * byte_fields in
            !p.(o + f_writer) <- -1;
            clear_readers sh !p o
          end
        done);
  let exit_code = Interp.Machine.run m in
  Array.iteri
    (fun aid n -> if n > 0 then Hashtbl.replace g.Graph.dyn_counts aid n)
    counts;
  g.Graph.total_cycles <- st.Interp.Machine.cycles;
  if Telemetry.Sink.enabled () then begin
    Telemetry.Span.count "profile.sites" (List.length g.Graph.sites);
    Telemetry.Span.count "profile.edges" (Hashtbl.length g.Graph.edges)
  end;
  {
    graph = g;
    stats = st.Interp.Machine.stats;
    exit_code;
    output = Interp.Machine.output st;
    peak_bytes = Interp.Memory.peak_bytes st.Interp.Machine.mem;
  }
