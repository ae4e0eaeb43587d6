(** Dynamic data-dependence profiling.

    The paper obtains its loop-level dependence graphs from off-line
    profiling runs ([38,39] in its references) followed by manual
    verification; this module plays that role. It executes the program
    under the interpreter's access observer, once for all the loops of
    a pass (see "One pass over many loops" below), and builds each
    loop's exact graph of Definition 1 at byte granularity:

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
    profile correctly. The shadow state is kept per aligned 4-byte
    granule while the granule's four bytes share one state, and per
    byte only where an access has covered the granule partly (see
    "Shadow state" below), which gives the same graph. *)

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
    the bodies of [callees], the functions transitively callable from
    the loop — Definition 1's vertex set is "all memory accesses
    potentially executed in the loop". *)
let loop_sites (loop_stmt : Ast.stmt) (callees : Ast.fundef list) :
    Graph.site list =
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
  let callee = List.concat_map Visit.accesses_of_fun callees in
  List.map of_access (direct @ callee)

(* Loop ids of the loops in [s], [s]'s own included. *)
let loops_in (s : Ast.stmt) : Ast.lid list =
  let acc = ref [] in
  ignore
    (Visit.map_stmt
       (fun s ->
         (match s.Ast.skind with
         | Ast.Swhile (l, _, _) | Ast.Sfor (l, _, _, _, _) -> acc := l :: !acc
         | _ -> ());
         s)
       s);
  !acc

(* A candidate loop's statement, the functions callable from it, and
   the loops that may run while it is active: its own, those inside
   its statement and those in the callable functions. *)
type candidate = {
  c_stmt : Ast.stmt;
  c_callees : Ast.fundef list;
  c_under : Ast.lid list;
}

let candidate (prog : Ast.program) (lid : Ast.lid) : candidate =
  match Visit.find_loop_fun prog lid with
  | None -> invalid_arg (Printf.sprintf "profile: no loop with id %d" lid)
  | Some (_, s) ->
    let callees = reachable_funs prog s in
    {
      c_stmt = s;
      c_callees = callees;
      c_under =
        loops_in s @ List.concat_map (fun f -> loops_in f.Ast.fbody) callees;
    }

(* Whether one of two candidate loops may run while the other is
   active (a loop may always nest in itself). *)
let may_nest (la, a) (lb, b) = List.mem lb a.c_under || List.mem la b.c_under

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* A shadow unit is four ints: the last in-loop writer (aid, -1 when
   none since the last out-of-loop store or free), that write's
   iteration and invocation, and the head of the reader set (-1 when
   empty). A unit is an aligned 4-byte granule while its four bytes
   share one state, and a byte otherwise.

   Granules live in pages of one {!Interp.Shadow} keyed by address / 4,
   allocated on first in-loop access. An access that covers a granule
   only partly (a 1- or 2-byte or unaligned access, or an out-of-loop
   store or free range that ends inside the granule) splits it: its
   writer becomes [split], and each of its bytes gets a copy of its
   state, reader set included, in a second shadow keyed by address. A
   store that leaves the four bytes equal and without readers merges
   them back. An aligned 4- or 8-byte access to granules that are not
   split updates 1 or 2 units, where a byte shadow updates 4 or 8.

   This is exact: on a granule that is one unit the byte algorithm
   makes the same update to each of the four bytes, so the bytes after
   the first add no edge the filter has not already passed on and no
   exposure mark the tables do not already hold.

   The per-access path allocates nothing: its helpers are top-level
   functions over ints (a local closure would be allocated on every
   call), and the small ones are inlined. *)
let page_mask = Interp.Shadow.page_mask
let no_page = Interp.Shadow.no_page
let f_writer = 0
let f_iter = 1
let f_inv = 2
let f_readers = 3
let unit_fields = 4
let split = -2

(* A reader set is a linked list of nodes in one int pool, one node per
   site aid that read the unit in the set's invocation: its lowest and
   highest iteration, the invocation and the next node (-1 ends). *)
let n_aid = 0
let n_lo = 1
let n_hi = 2
let n_inv = 3
let n_next = 4
let node_fields = 5

type shadow = {
  granules : Interp.Shadow.t;  (** keyed by address / 4 *)
  bytes : Interp.Shadow.t;  (** keyed by address; live for split granules *)
  mutable nodes : int array;
  mutable free : int;  (** first free node, -1 when none *)
  mutable fresh : int;  (** first never-used node *)
}

let shadow_create () =
  {
    granules = Interp.Shadow.create ~fields:unit_fields ~init:(-1);
    bytes = Interp.Shadow.create ~fields:unit_fields ~init:(-1);
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

(* A copy of the reader set from node [n] on, in the same order. *)
let rec copy_readers sh n =
  if n < 0 then -1
  else begin
    let next = copy_readers sh sh.nodes.(n + n_next) in
    let c = alloc_node sh in
    let nodes = sh.nodes in
    Array.blit nodes n nodes c n_next;
    nodes.(c + n_next) <- next;
    c
  end

(* Empty the reader set of the unit at offset [o] of page [p]. *)
let[@inline] clear_readers sh p o =
  let h = p.(o + f_readers) in
  if h >= 0 then begin
    sh.nodes.(last_node sh.nodes h + n_next) <- sh.free;
    sh.free <- h;
    p.(o + f_readers) <- -1
  end

(* Back to the state of a unit no in-loop access has touched. *)
let reset sh p o =
  clear_readers sh p o;
  p.(o + f_writer) <- -1;
  p.(o + f_iter) <- -1;
  p.(o + f_inv) <- -1

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

(* The byte page holding the granule that starts at address [a], whose
   unit is at offset [o] of granule page [p]; a granule that is one
   unit is split first. *)
let split_granule sh p o a =
  let b = Interp.Shadow.page sh.bytes a in
  if p.(o + f_writer) <> split then begin
    let bo = (a land page_mask) * unit_fields in
    let h = p.(o + f_readers) in
    for k = 0 to 3 do
      let q = bo + (k * unit_fields) in
      b.(q + f_writer) <- p.(o + f_writer);
      b.(q + f_iter) <- p.(o + f_iter);
      b.(q + f_inv) <- p.(o + f_inv);
      b.(q + f_readers) <- (if k = 0 then h else copy_readers sh h)
    done;
    p.(o + f_writer) <- split;
    p.(o + f_readers) <- -1
  end;
  b

(* Whether the bytes [k, 4) of a split granule, at offset [bo] of byte
   page [b], have writer [w], iteration [it], invocation [inv] and no
   readers. *)
let rec same_from b bo w it inv k =
  k = 4
  ||
  let q = bo + (k * unit_fields) in
  b.(q + f_writer) = w
  && b.(q + f_iter) = it
  && b.(q + f_inv) = inv
  && b.(q + f_readers) < 0
  && same_from b bo w it inv (k + 1)

(* Make a split granule one unit again if its four bytes hold one state
   and no readers. *)
let merge p o b bo =
  let w = b.(bo + f_writer)
  and it = b.(bo + f_iter)
  and inv = b.(bo + f_inv) in
  if same_from b bo w it inv 0 then begin
    p.(o + f_writer) <- w;
    p.(o + f_iter) <- it;
    p.(o + f_inv) <- inv
  end

(* Run [unit aid p o] on the units of the bytes [addr, addr + size), in
   address order: once on a granule that is one unit and either
   covered whole or left unchanged by [unit] ([mutates] false), and
   otherwise once on each covered byte of the granule, split first and
   merged after when [mutates]. Without [alloc], granules on pages no
   in-loop access touched are skipped: their state is the fresh one. *)
let walk sh ~alloc ~mutates unit aid addr size =
  let last = addr + size - 1 in
  for g = addr lsr 2 to last lsr 2 do
    let p =
      if alloc then Interp.Shadow.page sh.granules g
      else Interp.Shadow.find_page sh.granules g
    in
    if p != no_page then begin
      let o = (g land page_mask) * unit_fields in
      let a = g lsl 2 in
      if
        p.(o + f_writer) <> split
        && ((addr <= a && a + 3 <= last) || not mutates)
      then unit aid p o
      else begin
        let b = split_granule sh p o a in
        let bo = (a land page_mask) * unit_fields in
        let lo = if addr > a then addr - a else 0
        and hi = if last < a + 3 then last - a else 3 in
        for x = lo to hi do
          unit aid b (bo + (x * unit_fields))
        done;
        if mutates then merge p o b bo
      end
    end
  done

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
(* One pass over many loops                                            *)
(* ------------------------------------------------------------------ *)

(* A pass profiles loops that can never be active at the same time in
   one run of the program, over one shadow. Each invocation of one of
   its loops gets a fresh epoch, numbered across all of them, and the
   shadow's invocation fields hold epochs; [owners] maps an epoch to
   its loop. While a loop is active, its graph, edge filter, site,
   count and mark tables are the ones in use (the [Enter] event
   switches them).

   Owner rule. To a separate run of loop L, the accesses of another
   loop M are accesses outside L, so a pass treats a unit whose writer
   belongs to M's epoch, seen while L is active, as such a run of each
   loop would see it: a load marks the writer downwards-exposed in M's
   graph (read after M) and the load upwards-exposed in L's (no write
   of L reaches it); a store marks the writer killed-after-loop in M's
   graph. M's stores and reads reset the unit's reader set as an
   outside store would: stale readers are dropped, since a store only
   pairs with readers of its own epoch. Everything else is what a run
   of the active loop alone does, so each graph equals a separate
   run's, tables filling in the same order (the granule splits differ,
   which changes no result: see "Shadow state"). *)
type loop_state = {
  graph : Graph.t;
  filter : filter;
  is_site : bool array;  (** aid-indexed: the loop's sites *)
  counts : int array;  (** aid-indexed dynamic counts *)
  seen_up : bool array;
  seen_down : bool array;
  seen_killed : bool array;
}

(* Exposure marks and dynamic counts reach the graph's tables on their
   first occurrence, so the tables fill in the order they always have;
   the final counts are written after the run. *)
let[@inline] mark seen add (ls : loop_state) aid =
  if not seen.(aid) then begin
    seen.(aid) <- true;
    add ls.graph aid
  end

let mark_up ls aid = mark ls.seen_up Graph.mark_upwards_exposed ls aid
let mark_down ls aid = mark ls.seen_down Graph.mark_downwards_exposed ls aid

let mark_killed ls aid =
  mark ls.seen_killed Graph.mark_killed_after_loop ls aid

let loop_state n_aids lid (c : candidate) =
  let g = Graph.create lid (loop_sites c.c_stmt c.c_callees) in
  let is_site = Array.make n_aids false in
  List.iter (fun s -> is_site.(s.Graph.s_aid) <- true) g.Graph.sites;
  {
    graph = g;
    filter = filter_create g n_aids;
    is_site;
    counts = Array.make n_aids 0;
    seen_up = Array.make n_aids false;
    seen_down = Array.make n_aids false;
    seen_killed = Array.make n_aids false;
  }

(* The pass over [cands], whose loops must not nest. *)
let run_pass (prog : Ast.program) (cands : (Ast.lid * candidate) list) :
    profile list =
  Telemetry.Span.wall "phase.profile" @@ fun () ->
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  (* every aid the run reports, the formals' included, was drawn from
     the program's counter when it was built *)
  let n_aids = prog.Ast.next_aid in
  let loops =
    Array.of_list (List.map (fun (lid, c) -> loop_state n_aids lid c) cands)
  in
  let index = Array.make prog.Ast.next_lid (-1) in
  List.iteri (fun k (lid, _) -> index.(lid) <- k) cands;
  let sh = shadow_create () in
  let in_pass l = l < Array.length index && index.(l) >= 0 in
  let cur = ref loops.(0) in
  let cur_lid = ref (-1) in
  let owners = ref (Array.make 16 loops.(0)) in
  let in_loop = ref false in
  let cur_iter = ref 0 in
  let epoch = ref (-1) in
  let enter_cycles = ref 0 in
  let hook l ev i =
    match ev with
    | Interp.Machine.Iter ->
      (* only the loop entered last can be iterating *)
      if l = !cur_lid then cur_iter := i
    | Interp.Machine.Enter ->
      if in_pass l then begin
        let ls = loops.(index.(l)) in
        incr epoch;
        if !epoch = Array.length !owners then begin
          let o = Array.make (2 * !epoch) ls in
          Array.blit !owners 0 o 0 !epoch;
          owners := o
        end;
        !owners.(!epoch) <- ls;
        cur := ls;
        cur_lid := l;
        in_loop := true;
        cur_iter := 0;
        ls.graph.Graph.invocations <- ls.graph.Graph.invocations + 1;
        enter_cycles := st.Interp.Machine.cycles
      end
    | Interp.Machine.Exit ->
      if in_pass l then begin
        let g = loops.(index.(l)).graph in
        in_loop := false;
        (* the trailing Iter only ran the failing condition *)
        g.Graph.iterations <- g.Graph.iterations + !cur_iter;
        g.Graph.loop_cycles <-
          g.Graph.loop_cycles + (st.Interp.Machine.cycles - !enter_cycles)
      end
  in
  (* the units [walk] applies: in-loop loads and stores, and loads,
     stores and frees outside the pass's loops *)
  let load aid p o =
    let ls = !cur in
    let iter = !cur_iter and e = !epoch in
    let w = p.(o + f_writer) in
    if w >= 0 then begin
      let we = p.(o + f_inv) in
      if we = e then
        add_edge ls.filter ~src:w ~dst:aid ~kind:Graph.Flow
          ~carried:(p.(o + f_iter) < iter)
      else begin
        (* written before this invocation, by an earlier one or by
           another loop: live-out of the writer's loop and live-in to
           this one *)
        mark_down !owners.(we) w;
        mark_up ls aid
      end
    end
    else mark_up ls aid;
    (* only a site's read can source an anti edge *)
    if ls.is_site.(aid) then add_reader sh p o aid iter e
  in
  let store aid p o =
    let ls = !cur in
    let iter = !cur_iter and e = !epoch in
    let w = p.(o + f_writer) in
    if w >= 0 then begin
      let we = p.(o + f_inv) in
      if we = e then
        add_edge ls.filter ~src:w ~dst:aid ~kind:Graph.Output
          ~carried:(p.(o + f_iter) < iter)
      else
        let owner = !owners.(we) in
        (* another loop's value, overwritten outside that loop *)
        if owner != ls then mark_killed owner w
    end;
    let h = p.(o + f_readers) in
    if h >= 0 then begin
      if sh.nodes.(h + n_inv) = e then add_anti ls.filter sh.nodes aid iter h;
      clear_readers sh p o
    end;
    p.(o + f_writer) <- aid;
    p.(o + f_iter) <- iter;
    p.(o + f_inv) <- e
  in
  let load_after _ p o =
    let w = p.(o + f_writer) in
    if w >= 0 then mark_down !owners.(p.(o + f_inv)) w
  in
  let store_after _ p o =
    let w = p.(o + f_writer) in
    (* overwriting an in-loop value that was never read after the
       loop: a loop-boundary output dependence *)
    if w >= 0 then mark_killed !owners.(p.(o + f_inv)) w;
    reset sh p o
  in
  let freed _ p o = reset sh p o in
  let observe aid kind addr size =
    if !in_loop then begin
      let ls = !cur in
      if ls.is_site.(aid) then begin
        let counts = ls.counts in
        if counts.(aid) = 0 then
          Hashtbl.replace ls.graph.Graph.dyn_counts aid 0;
        counts.(aid) <- counts.(aid) + 1
      end;
      match kind with
      | Visit.Load -> walk sh ~alloc:true ~mutates:true load aid addr size
      | Visit.Store -> walk sh ~alloc:true ~mutates:true store aid addr size
    end
    else
      match kind with
      | Visit.Load ->
        walk sh ~alloc:false ~mutates:false load_after aid addr size
      | Visit.Store ->
        walk sh ~alloc:false ~mutates:true store_after aid addr size
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
        walk sh ~alloc:false ~mutates:true freed (-1) base size);
  let exit_code = Interp.Machine.run m in
  let output = Interp.Machine.output st in
  let peak_bytes = Interp.Memory.peak_bytes st.Interp.Machine.mem in
  let profiles =
    Array.to_list loops
    |> List.map (fun ls ->
           let g = ls.graph in
           Array.iteri
             (fun aid n ->
               if n > 0 then Hashtbl.replace g.Graph.dyn_counts aid n)
             ls.counts;
           g.Graph.total_cycles <- st.Interp.Machine.cycles;
           if Telemetry.Sink.enabled () then begin
             Telemetry.Span.count "profile.sites" (List.length g.Graph.sites);
             Telemetry.Span.count "profile.edges" (Hashtbl.length g.Graph.edges)
           end;
           {
             graph = g;
             stats = st.Interp.Machine.stats;
             exit_code;
             output;
             peak_bytes;
           })
  in
  (* the next pass's machine reuses this one's arena *)
  Interp.Memory.release st.Interp.Machine.mem;
  profiles

(** Profile the loops [lids] in one run of the program. *)
let profile_loops (prog : Ast.program) (lids : Ast.lid list) : profile list =
  let cands = List.map (fun lid -> (lid, candidate prog lid)) lids in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && may_nest a b then
            invalid_arg
              (Printf.sprintf "profile_loops: loops %d and %d may nest" (fst a)
                 (fst b)))
        cands)
    cands;
  match cands with [] -> [] | _ -> run_pass prog cands

(* The pass [profile] runs for [lid]: the program's parallel loops in
   order, each in the first pass holding no loop it may nest with. *)
let pass_of (prog : Ast.program) (lid : Ast.lid) :
    (Ast.lid * candidate) list =
  let cands =
    List.map (fun l -> (l, candidate prog l)) prog.Ast.parallel_loops
  in
  let rec place c = function
    | [] -> [ [ c ] ]
    | pass :: passes ->
      if List.exists (may_nest c) pass then pass :: place c passes
      else (pass @ [ c ]) :: passes
  in
  let passes = List.fold_left (fun ps c -> place c ps) [] cands in
  match List.find_opt (List.mem_assoc lid) passes with
  | Some pass -> pass
  | None -> [ (lid, candidate prog lid) ]

(* The profiles passes made for loops other than the ones asked for,
   kept for the next calls on the same program: each is handed out
   once, the slot is emptied with the last, and a pass over another
   program drops them. *)
let kept : (Ast.program * (Ast.lid * profile) list) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** Profile [lid], running its pass unless an earlier call's pass
    already did. *)
let profile (prog : Ast.program) (lid : Ast.lid) : profile =
  let kept_here =
    match Domain.DLS.get kept with
    | Some (p, profiles) when p == prog -> profiles
    | _ -> []
  in
  let profiles =
    if List.mem_assoc lid kept_here then kept_here
    else
      let pass = pass_of prog lid in
      List.combine (List.map fst pass) (run_pass prog pass)
      @ List.filter (fun (l, _) -> not (List.mem_assoc l pass)) kept_here
  in
  Domain.DLS.set kept
    (match List.remove_assoc lid profiles with
    | [] -> None
    | rest -> Some (prog, rest));
  List.assoc lid profiles
