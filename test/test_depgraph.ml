(* Tests for dependence profiling (Definition 1) and access-class
   classification (Definitions 4-5), including the paper's own
   examples. *)

open Minic

let classify_first_loop src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  let lid =
    match p.Ast.parallel_loops with
    | l :: _ -> l
    | [] -> Alcotest.fail "no #pragma parallel loop in test program"
  in
  let r = Privatize.Analyze.analyze p lid in
  (r.Privatize.Analyze.profile, r.Privatize.Analyze.classification)

(* Sites whose pretty-printed lvalue matches [text]. *)
let aids_for (g : Depgraph.Graph.t) text =
  List.filter_map
    (fun (s : Depgraph.Graph.site) ->
      if String.equal s.Depgraph.Graph.s_text text then
        Some s.Depgraph.Graph.s_aid
      else None)
    g.Depgraph.Graph.sites

let aid_for g text =
  match aids_for g text with
  | [ a ] -> a
  | [] -> Alcotest.failf "no site for %s" text
  | l -> List.hd l

(* --- Figure 1 of the paper: zptr is initialized then used in every
   iteration -> all zptr accesses are thread-private. --- *)
let fig1_zptr = {|
int main(void)
{
  int m = 64;
  int *zptr = (int *)malloc(sizeof(int) * m);
  int b = 0;
  int round = 0;
  int k;
#pragma parallel
  while (round < 20) {
    for (k = 0; k < m; k++)
      zptr[k] = round + k;
    for (k = 0; k < m; k++)
      b += zptr[k];
    round++;
  }
  printf("%d\n", b);
  return 0;
}|}

let fig1_private_zptr () =
  let prof, cls = classify_first_loop fig1_zptr in
  let g = prof.Depgraph.Profiler.graph in
  (* The zptr element store and load form one private class. *)
  let store_aid =
    List.find_map
      (fun (s : Depgraph.Graph.site) ->
        if
          s.Depgraph.Graph.s_kind = Visit.Store
          && Depgraph.Graph.dyn_count g s.Depgraph.Graph.s_aid >= 20 * 64
        then Some s.Depgraph.Graph.s_aid
        else None)
      g.Depgraph.Graph.sites
  in
  (match store_aid with
  | Some aid ->
    Alcotest.(check bool)
      "zptr store is private" true
      (Privatize.Classify.is_private cls aid)
  | None -> Alcotest.fail "zptr element store not found");
  (* b accumulates across iterations: carried flow -> shared. *)
  let b_aid = aid_for g "b" in
  Alcotest.(check bool) "b is shared" false
    (Privatize.Classify.is_private cls b_aid);
  Alcotest.(check bool) "b carries flow" true
    (Depgraph.Graph.in_carried_flow g b_aid)

let fig1_doacross () =
  let _, cls = classify_first_loop fig1_zptr in
  (* the b accumulation makes the loop DOACROSS *)
  Alcotest.(check bool) "doacross" true
    (Privatize.Classify.parallelism_kind cls = `Doacross)

(* --- A clean DOALL loop: disjoint writes per iteration. --- *)
let doall_src = {|
int out[100];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 100; i++) {
    int t = i * i;
    out[i] = t;
  }
  printf("%d\n", out[99]);
  return 0;
}|}

let doall_classified () =
  let prof, cls = classify_first_loop doall_src in
  let g = prof.Depgraph.Profiler.graph in
  Alcotest.(check bool) "doall" true
    (Privatize.Classify.parallelism_kind cls = `Doall);
  (* out[i] is written once per iteration, never carried: it is
     downwards-exposed (read after the loop), hence shared. *)
  let out_store =
    List.find
      (fun (s : Depgraph.Graph.site) ->
        s.Depgraph.Graph.s_kind = Visit.Store
        && String.equal s.Depgraph.Graph.s_text "out[i]")
      g.Depgraph.Graph.sites
  in
  Alcotest.(check bool) "out[i] downwards exposed" true
    (Depgraph.Graph.is_downwards_exposed g out_store.Depgraph.Graph.s_aid);
  (* t is written then read in each iteration: carried output dep on
     itself across iterations, no exposure -> private. *)
  let t_store = aid_for g "t" in
  Alcotest.(check bool) "t private" true
    (Privatize.Classify.is_private cls t_store)

(* --- Upwards-exposed load: reading data defined before the loop. --- *)
let upward_src = {|
int tab[10];
int main(void)
{
  int i;
  int s = 0;
  for (i = 0; i < 10; i++) tab[i] = i;
#pragma parallel
  for (i = 0; i < 10; i++) {
    s += tab[i];
  }
  return s;
}|}

let upwards_exposed_detected () =
  let prof, cls = classify_first_loop upward_src in
  let g = prof.Depgraph.Profiler.graph in
  let tab_load =
    List.find
      (fun (s : Depgraph.Graph.site) ->
        s.Depgraph.Graph.s_kind = Visit.Load
        && String.equal s.Depgraph.Graph.s_text "tab[i]")
      g.Depgraph.Graph.sites
  in
  Alcotest.(check bool) "tab[i] upwards-exposed" true
    (Depgraph.Graph.is_upwards_exposed g tab_load.Depgraph.Graph.s_aid);
  Alcotest.(check bool) "tab[i] shared" false
    (Privatize.Classify.is_private cls tab_load.Depgraph.Graph.s_aid)

(* --- The Section 3.2 example: ambiguous *p merges classes via a
   loop-independent dependence. --- *)
let ambiguous_src = {|
int a[100];
int b;
int main(void)
{
  int i;
  int acc = 0;
#pragma parallel
  for (i = 0; i < 100; i++) {
    int c = i % 2;
    int *p;
    if (c) p = &b;
    else p = &a[i];
    *p = 0;
    if (c) { a[i] = *p + 1; acc += a[i]; }
  }
  printf("%d\n", acc);
  return 0;
}|}

let ambiguous_classes_merged () =
  let prof, cls = classify_first_loop ambiguous_src in
  let g = prof.Depgraph.Profiler.graph in
  (* The load *p and store *p are related by a loop-independent flow
     dependence, so they are in the same class and share a verdict. *)
  let store_p =
    List.find
      (fun (s : Depgraph.Graph.site) ->
        s.Depgraph.Graph.s_kind = Visit.Store
        && String.equal s.Depgraph.Graph.s_text "*p")
      g.Depgraph.Graph.sites
  in
  let load_p =
    List.find
      (fun (s : Depgraph.Graph.site) ->
        s.Depgraph.Graph.s_kind = Visit.Load
        && String.equal s.Depgraph.Graph.s_text "*p")
      g.Depgraph.Graph.sites
  in
  let same_class =
    List.exists
      (fun (cls_members, _, _) ->
        List.mem store_p.Depgraph.Graph.s_aid cls_members
        && List.mem load_p.Depgraph.Graph.s_aid cls_members)
      cls.Privatize.Classify.classes
  in
  Alcotest.(check bool) "store *p and load *p in one class" true same_class;
  Alcotest.(check bool) "same verdict" true
    (Privatize.Classify.verdict cls store_p.Depgraph.Graph.s_aid
    = Privatize.Classify.verdict cls load_p.Depgraph.Graph.s_aid)

(* --- Dependences through a called function are captured. --- *)
let callee_src = {|
int scratch[8];
int use(int i)
{
  scratch[0] = i;
  return scratch[0] + 1;
}
int main(void)
{
  int i;
  int last = 0;
#pragma parallel
  for (i = 0; i < 50; i++) {
    last = use(i);
  }
  printf("%d\n", last);
  return 0;
}|}

let callee_accesses_tracked () =
  let prof, cls = classify_first_loop callee_src in
  let g = prof.Depgraph.Profiler.graph in
  let scratch_store =
    List.find
      (fun (s : Depgraph.Graph.site) ->
        s.Depgraph.Graph.s_kind = Visit.Store
        && String.equal s.Depgraph.Graph.s_text "scratch[0]")
      g.Depgraph.Graph.sites
  in
  (* scratch[0] is written then read each iteration, never exposed:
     private even though it lives in a callee. *)
  Alcotest.(check bool) "callee scratch[0] is private" true
    (Privatize.Classify.is_private cls scratch_store.Depgraph.Graph.s_aid)

(* --- Figure 8 breakdown: counts partition the dynamic accesses. --- *)
let breakdown_partitions () =
  let prof, cls = classify_first_loop fig1_zptr in
  let g = prof.Depgraph.Profiler.graph in
  let b = Privatize.Classify.breakdown cls in
  let total =
    List.fold_left
      (fun acc (s : Depgraph.Graph.site) ->
        acc + Depgraph.Graph.dyn_count g s.Depgraph.Graph.s_aid)
      0 g.Depgraph.Graph.sites
  in
  Alcotest.(check int) "partition sums to total" total
    (b.Privatize.Classify.free_of_carried + b.Privatize.Classify.expandable
   + b.Privatize.Classify.with_carried);
  Alcotest.(check bool) "some accesses expandable" true
    (b.Privatize.Classify.expandable > 0)

(* --- Heap recycling must not create phantom dependences: a freed and
   reallocated block is a fresh value (the profiler sees the write by
   the allocator... here we check a malloc/free-per-iteration loop has
   no carried flow on the node contents). --- *)
let malloc_free_loop = {|
struct node { int v; int w; };
int main(void)
{
  int i;
  int acc = 0;
#pragma parallel
  for (i = 0; i < 40; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i;
    n->w = n->v * 2;
    acc += n->w;
    free(n);
  }
  printf("%d\n", acc);
  return 0;
}|}

let recycled_heap_no_carried_flow () =
  let prof, _cls = classify_first_loop malloc_free_loop in
  let g = prof.Depgraph.Profiler.graph in
  let nv_store = aid_for g "n->v" in
  Alcotest.(check bool) "n->v has no carried flow" false
    (Depgraph.Graph.in_carried_flow g nv_store)

let loop_stats () =
  let prof, _ = classify_first_loop doall_src in
  let g = prof.Depgraph.Profiler.graph in
  Alcotest.(check int) "iterations" 100 g.Depgraph.Graph.iterations;
  Alcotest.(check int) "invocations" 1 g.Depgraph.Graph.invocations;
  Alcotest.(check bool) "loop cycles positive" true (g.Depgraph.Graph.loop_cycles > 0);
  Alcotest.(check bool) "loop within total" true
    (g.Depgraph.Graph.loop_cycles <= g.Depgraph.Graph.total_cycles)

(* --- Profiling allocates about what a plain run does: the shadow
   state lives in preallocated int arrays and repeated edges never
   reach the graph, so no allocation per access can creep back. Minor
   words are exact for a deterministic run, unlike timings. --- *)
let profile_allocation_bound () =
  let w = Workloads.Registry.find "md5" in
  let p =
    Typecheck.parse_and_check ~file:w.Workloads.Workload.name
      w.Workloads.Workload.source
  in
  let lid = List.hd p.Ast.parallel_loops in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  (* every load and store reaches the observer once *)
  let calls = ref 0 in
  let run =
    words (fun () ->
        let m = Interp.Machine.load p in
        ignore (Interp.Machine.run m);
        let s = m.Interp.Machine.st.Interp.Machine.stats in
        calls := s.Interp.Machine.n_loads + s.Interp.Machine.n_stores)
  in
  let prof = words (fun () -> Depgraph.Profiler.profile p lid) in
  Alcotest.(check bool)
    (Printf.sprintf
       "profile %.0f - run %.0f minor words <= 0.01 x %d observer calls" prof
       run !calls)
    true
    (prof -. run <= 0.01 *. float_of_int !calls)

(* --- One pass over many loops. --- *)

(* `dune runtest` runs in test/ of the build tree, `dune exec` from the
   workspace root. *)
let root = if Sys.file_exists "programs" then ".." else "."

let read_file path = In_channel.with_open_bin path In_channel.input_all

let c_files dir =
  let dir = Filename.concat root dir in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* Every program in the repository with a parallel loop. *)
let all_programs () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      (w.Workloads.Workload.name, w.Workloads.Workload.source))
    Workloads.Registry.all
  @ c_files "test/programs" @ c_files "examples/programs"
  @ List.map
      (fun f ->
        (f, read_file (Filename.concat root ("perfbench/programs/" ^ f))))
      [ "multi.c"; "rows.c" ]

(* Each loop's profile from the pass it shares with other loops renders
   as a pass over that loop alone does. *)
let pass_exact (name, src) () =
  let p = Typecheck.parse_and_check ~file:name src in
  let lids = p.Ast.parallel_loops in
  let shared = List.map (Privatize.Analyze.analyze p) lids in
  let alone =
    List.map
      (fun lid ->
        Privatize.Analyze.of_profile p lid
          (List.hd (Depgraph.Profiler.profile_loops p [ lid ])))
      lids
  in
  Alcotest.(check (list string))
    (name ^ ": renders") (List.map Golden.render alone)
    (List.map Golden.render shared)

let parse_file name =
  Typecheck.parse_and_check ~file:name (List.assoc name (all_programs ()))

(* Loops that may nest cannot share a pass: loop 2 of nested.c sits in
   loop 1's body, and loop 0 in a function loop 1 calls. *)
let nesting_rejected () =
  let p = parse_file "nested.c" in
  List.iter
    (fun lids ->
      match Depgraph.Profiler.profile_loops p lids with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "loops %s shared a pass"
          (String.concat ", " (List.map string_of_int lids)))
    [ [ 1; 2 ]; [ 0; 1 ]; [ 2; 1 ] ];
  Alcotest.(check int)
    "loops 0 and 2 share one" 2
    (List.length (Depgraph.Profiler.profile_loops p [ 0; 2 ]))

(* Analysing every loop runs one instrumented pass per group of loops
   that never nest: one "phase.profile" span each. A kept profile is
   handed out once, so asking for a loop again runs its pass again. *)
let pass_count () =
  let passes ?lids name =
    let p = parse_file name in
    let lids = Option.value lids ~default:p.Ast.parallel_loops in
    let n = ref 0 in
    let sink =
      {
        Telemetry.Sink.emit =
          (function
          | Telemetry.Event.Span_begin { name = "phase.profile"; _ } -> incr n
          | _ -> ());
        flush = ignore;
      }
    in
    Telemetry.Sink.with_sink sink (fun () ->
        List.iter (fun lid -> ignore (Privatize.Analyze.analyze p lid)) lids);
    !n
  in
  List.iter
    (fun (name, n) -> Alcotest.(check int) (name ^ ": passes") n (passes name))
    [ ("h263-encoder", 1); ("multi.c", 1); ("nested.c", 2); ("passmates.c", 1) ];
  Alcotest.(check int)
    "passmates.c, loops 0, 1, 0: passes" 2
    (passes ~lids:[ 0; 1; 0 ] "passmates.c")

(* --- Union-find properties. --- *)
let uf_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~count:200 ~name:"union-find: union implies same class"
         (pair (list (pair small_nat small_nat)) (pair small_nat small_nat))
         (fun (unions, (a, b)) ->
           let uf = Privatize.Union_find.create () in
           List.iter (fun (x, y) -> Privatize.Union_find.union uf x y) unions;
           Privatize.Union_find.union uf a b;
           Privatize.Union_find.same uf a b));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:200 ~name:"union-find: classes partition members"
         (list (pair small_nat small_nat))
         (fun unions ->
           let uf = Privatize.Union_find.create () in
           List.iter (fun (x, y) -> Privatize.Union_find.union uf x y) unions;
           let classes = Privatize.Union_find.classes uf in
           let members = List.concat classes in
           let sorted = List.sort_uniq compare members in
           List.length sorted = List.length members
           && List.for_all
                (fun cls ->
                  List.for_all
                    (fun x -> Privatize.Union_find.same uf (List.hd cls) x)
                    cls)
                classes));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:200 ~name:"union-find: transitivity"
         (triple small_nat small_nat small_nat)
         (fun (a, b, c) ->
           let uf = Privatize.Union_find.create () in
           Privatize.Union_find.union uf a b;
           Privatize.Union_find.union uf b c;
           Privatize.Union_find.same uf a c));
  ]

let () =
  Alcotest.run "depgraph"
    [
      ( "profiling",
        [
          Alcotest.test_case "fig1 zptr private" `Quick fig1_private_zptr;
          Alcotest.test_case "fig1 doacross" `Quick fig1_doacross;
          Alcotest.test_case "doall classified" `Quick doall_classified;
          Alcotest.test_case "upwards exposed" `Quick upwards_exposed_detected;
          Alcotest.test_case "ambiguous classes merged" `Quick
            ambiguous_classes_merged;
          Alcotest.test_case "callee accesses tracked" `Quick
            callee_accesses_tracked;
          Alcotest.test_case "breakdown partitions" `Quick breakdown_partitions;
          Alcotest.test_case "recycled heap" `Quick
            recycled_heap_no_carried_flow;
          Alcotest.test_case "loop stats" `Quick loop_stats;
          Alcotest.test_case "md5 allocation bound" `Quick
            profile_allocation_bound;
        ] );
      ( "passes",
        Alcotest.test_case "nesting loops rejected" `Quick nesting_rejected
        :: Alcotest.test_case "one pass per group" `Quick pass_count
        :: List.map
             (fun (name, src) ->
               Alcotest.test_case ("exact: " ^ name) `Quick
                 (pass_exact (name, src)))
             (all_programs ()) );
      ("union-find", uf_tests);
    ]
