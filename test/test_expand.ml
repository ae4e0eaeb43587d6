(* Tests for the expansion transformation (Tables 1-3), the §3.4
   optimizations, the parallel simulator, and the runtime-privatization
   baseline. The central property throughout: the transformed program
   passes the verdict (output, exit code, final globals), sequentially
   and under the parallel schedule, at any thread count. *)

open Minic

let analyze_first src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  let lid = List.hd p.Ast.parallel_loops in
  (p, lid, Privatize.Analyze.analyze p lid)

(* Sequential equivalence: expanded with tid = 0 at several thread
   counts, optimized and not. *)
let check_seq_equiv name src =
  Alcotest.test_case name `Quick (fun () ->
      let p, _, r = analyze_first src in
      let oracle = Guard.Contract.oracle_of p [] in
      List.iter
        (fun optimize ->
          let res = Expand.Transform.expand ~optimize p r in
          List.iter (Judge.sequential oracle res) [ 1; 3; 8 ])
        [ true; false ])

(* Parallel equivalence: the simulated parallel run at several thread
   counts. *)
let check_par_equiv name src =
  Alcotest.test_case name `Quick (fun () ->
      let p, lid, r = analyze_first src in
      let oracle = Guard.Contract.oracle_of p [] in
      let res = Expand.Transform.expand p r in
      let spec = Parexec.Sim.spec_of_analysis r in
      List.iter
        (fun t ->
          let pr = Judge.simulated oracle res [ spec ] ~threads:t in
          Alcotest.(check bool)
            (Printf.sprintf "loop simulated T=%d" t)
            true
            (List.assoc lid pr.Parexec.Sim.pr_loop > 0))
        [ 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* The test programs                                                   *)
(* ------------------------------------------------------------------ *)

let fig1_src = {|
int main(void)
{
  int m = 32;
  int *zptr = (int *)malloc(sizeof(int) * m);
  int b = 0;
  int round = 0;
  int k;
#pragma parallel
  while (round < 25) {
    for (k = 0; k < m; k++)
      zptr[k] = round + k;
    for (k = 0; k < m; k++)
      b += zptr[k];
    round++;
  }
  printf("%d\n", b);
  free(zptr);
  return 0;
}|}

(* The paper's Figure 3 (456.hmmer): mx points at one of two
   different-sized allocations and is reused by every iteration; only
   the span makes redirection possible. (Per-iteration malloc'd+freed
   buffers are correctly NOT privatized: a thread-safe allocator keeps
   them disjoint already.) *)
let hmmer_fig3_src = {|
int results[40];
int *mx;
int main(void)
{
  int m1 = 160;
  int m2 = 224;
  int pick = 7;
  if (pick % 3 == 0) mx = (int *)malloc(m1);
  else mx = (int *)malloc(m2);
  int iter;
#pragma parallel
  for (iter = 0; iter < 40; iter++) {
    int k;
    int n = 10 + iter % 30;
    for (k = 0; k < n; k++)
      mx[k] = iter * k;
    int best = 0;
    for (k = 0; k < n; k++)
      if (mx[k] > best) best = mx[k];
    results[iter] = best;
  }
  int sum = 0;
  int i;
  for (i = 0; i < 40; i++) sum += results[i];
  printf("%d\n", sum);
  free(mx);
  return 0;
}|}

(* Linked list rebuilt every iteration through a global head pointer:
   the paper's dijkstra shape (priority queue as list). *)
let list_src = {|
struct node { int v; struct node *next; };
struct node *head;
int qcount;
int total;
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < 30; it++) {
    head = 0;
    qcount = 0;
    int j;
    for (j = 0; j < 10; j++) {
      struct node *n = (struct node *)malloc(sizeof(struct node));
      n->v = it + j;
      n->next = head;
      head = n;
      qcount++;
    }
    int s = 0;
    while (qcount > 0) {
      struct node *d = head;
      head = head->next;
      s += d->v;
      free(d);
      qcount--;
    }
    total += s;
  }
  printf("%d\n", total);
  return 0;
}|}

(* Expanded global with an initializer; shared reads keep copy 0. *)
let init_global_src = {|
int weights[4] = {3, 1, 4, 1};
int scratch[8];
int acc;
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 50; i++) {
    int j;
    for (j = 0; j < 8; j++) scratch[j] = i * weights[j % 4];
    int s = 0;
    for (j = 0; j < 8; j++) s += scratch[j];
    acc += s;
  }
  printf("%d\n", acc);
  return 0;
}|}

(* Promoted pointer flowing through a helper function (span argument
   plumbing) and a pointer-returning helper (return span). *)
let helper_src = {|
int out;
int *make_buf(int n)
{
  int *p = (int *)malloc(sizeof(int) * n);
  return p;
}
void fill(int *p, int n, int seed)
{
  int k;
  for (k = 0; k < n; k++) p[k] = seed + k;
}
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < 20; it++) {
    int *buf = make_buf(16);
    fill(buf, 16, it);
    int s = 0;
    int k;
    for (k = 0; k < 16; k++) s += buf[k];
    out += s;
    free(buf);
  }
  printf("%d\n", out);
  return 0;
}|}

(* Promoted struct field: the list node carries a pointer to a
   per-node payload buffer. *)
let field_src = {|
struct slot { int len; int *payload; };
struct slot table[4];
int acc;
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < 24; it++) {
    int j;
    for (j = 0; j < 4; j++) {
      table[j].len = 4 + j;
      table[j].payload = (int *)malloc(sizeof(int) * table[j].len);
      int k;
      for (k = 0; k < table[j].len; k++)
        table[j].payload[k] = it * j + k;
    }
    int s = 0;
    for (j = 0; j < 4; j++) {
      int k2;
      for (k2 = 0; k2 < table[j].len; k2++)
        s += table[j].payload[k2];
      free(table[j].payload);
    }
    acc += s;
  }
  printf("%d\n", acc);
  return 0;
}|}

(* bzip2's recast: the same block written as ints, read as shorts. *)
let recast_src = {|
int acc;
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < 30; it++) {
    int *zptr = (int *)malloc(64);
    int k;
    for (k = 0; k < 16; k++) zptr[k] = it + k * 65536 + k;
    short *sp = (short *)zptr;
    int s = 0;
    for (k = 0; k < 32; k++) s += sp[k];
    acc += s;
    free(zptr);
  }
  printf("%d\n", acc);
  return 0;
}|}

let seq_tests =
  [
    check_seq_equiv "fig1 zptr" fig1_src;
    check_seq_equiv "hmmer fig3 spans" hmmer_fig3_src;
    check_seq_equiv "linked list queue" list_src;
    check_seq_equiv "global with initializer" init_global_src;
    check_seq_equiv "helper plumbing" helper_src;
    check_seq_equiv "promoted struct field" field_src;
    check_seq_equiv "short/int recast" recast_src;
  ]

let par_tests =
  [
    check_par_equiv "fig1 parallel" fig1_src;
    check_par_equiv "hmmer parallel" hmmer_fig3_src;
    check_par_equiv "list parallel" list_src;
    check_par_equiv "init global parallel" init_global_src;
    check_par_equiv "helper parallel" helper_src;
    check_par_equiv "field parallel" field_src;
    check_par_equiv "recast parallel" recast_src;
  ]

(* ------------------------------------------------------------------ *)
(* Structural properties of the transformation                          *)
(* ------------------------------------------------------------------ *)

let privatized_counts () =
  let count src =
    let p, _, r = analyze_first src in
    (Expand.Transform.expand p r).Expand.Transform.privatized
  in
  (* fig1 expands the zptr allocation; hmmer expands the ambiguous mx
     allocation *)
  Alcotest.(check bool) "fig1 privatizes a structure" true (count fig1_src > 0);
  Alcotest.(check bool) "hmmer privatizes a structure" true
    (count hmmer_fig3_src > 0);
  (* the list queue needs no replicated structure: the head/count
     scalars become OpenMP-style privates and the nodes are
     per-iteration allocations, disjoint under a thread-safe malloc *)
  Alcotest.(check bool) "list count is small" true (count list_src <= 1)

let selective_promotes_less () =
  let p, _, r = analyze_first hmmer_fig3_src in
  let sel = Expand.Plan.make ~mode:Expand.Plan.Bonded ~selective:true p [ r ] in
  let all = Expand.Plan.make ~mode:Expand.Plan.Bonded ~selective:false p [ r ] in
  Alcotest.(check bool) "selective promotes fewer pointers" true
    (Hashtbl.length sel.Expand.Plan.promoted_vars
    <= Hashtbl.length all.Expand.Plan.promoted_vars);
  Alcotest.(check bool) "unselective promotes every pointer var" true
    (Hashtbl.length all.Expand.Plan.promoted_vars
    >= Hashtbl.length sel.Expand.Plan.promoted_vars)

let optimization_reduces_cycles () =
  List.iter
    (fun src ->
      let p, _, r = analyze_first src in
      let cycles transformed =
        let m = Interp.Machine.load transformed in
        Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" 4;
        ignore (Interp.Machine.run m);
        m.Interp.Machine.st.Interp.Machine.cycles
      in
      let unopt =
        Expand.Transform.expand ~selective:false ~optimize:false p r
      in
      let opt = Expand.Transform.expand ~selective:true ~optimize:true p r in
      let cu = cycles unopt.Expand.Transform.transformed in
      let co = cycles opt.Expand.Transform.transformed in
      Alcotest.(check bool)
        (Printf.sprintf "optimized not slower (%d vs %d)" co cu)
        true (co <= cu))
    [ fig1_src; hmmer_fig3_src; list_src; helper_src ]

let spans_hold_original_sizes () =
  (* In the expanded hmmer program the allocation is m*N bytes but the
     span must record the original m; check by running with N=4 and
     confirming no memory fault occurs on the farthest redirected
     access (tid fixed 0 exercises copy 0 only; the parallel test
     exercises all copies). *)
  let p, _, r = analyze_first hmmer_fig3_src in
  let res = Expand.Transform.expand p r in
  let spec = Parexec.Sim.spec_of_analysis r in
  let pr =
    Parexec.Sim.run_parallel res.Expand.Transform.transformed [ spec ]
      ~threads:8
  in
  Alcotest.(check int) "exit" 0 pr.Parexec.Sim.pr_exit

let expansion_grows_memory () =
  let p, _, r = analyze_first hmmer_fig3_src in
  let res = Expand.Transform.expand p r in
  let peak n =
    let m = Interp.Machine.load res.Expand.Transform.transformed in
    Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" n;
    ignore (Interp.Machine.run m);
    Interp.Memory.peak_bytes m.Interp.Machine.st.Interp.Machine.mem
  in
  let p1 = peak 1 and p8 = peak 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads use more memory (%d vs %d)" p8 p1)
    true (p8 > p1)

let doacross_sync_grows () =
  let p, _, r = analyze_first fig1_src in
  let res = Expand.Transform.expand p r in
  let spec = Parexec.Sim.spec_of_analysis r in
  Alcotest.(check bool) "fig1 is doacross" true
    (spec.Parexec.Sim.schedule = Parexec.Sim.Doacross);
  let sync t =
    let pr =
      Parexec.Sim.run_parallel res.Expand.Transform.transformed [ spec ]
        ~threads:t
    in
    Array.fold_left ( + ) 0 pr.Parexec.Sim.pr_sync
  in
  Alcotest.(check bool) "more threads, more waiting" true (sync 8 > sync 2)

let runtimepriv_slower_same_output () =
  let p, _, r = analyze_first hmmer_fig3_src in
  let oracle = Guard.Contract.oracle_of p [] in
  let res = Expand.Transform.expand p r in
  let spec = Parexec.Sim.spec_of_analysis r in
  let rp = Runtimepriv.Rp.config_of p [ r ] in
  Alcotest.(check bool) "monitors some accesses" true
    (Hashtbl.length rp.Parexec.Sim.rp_monitored > 0);
  let plain = Judge.simulated oracle res [ spec ] ~threads:4 in
  let slow = Judge.simulated ~rp oracle res [ spec ] ~threads:4 in
  Alcotest.(check bool) "runtime privatization costs more" true
    (slow.Parexec.Sim.pr_total > plain.Parexec.Sim.pr_total);
  Alcotest.(check bool) "touched bytes recorded" true
    (slow.Parexec.Sim.pr_rp_touched_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Randomized semantic preservation                                    *)
(* ------------------------------------------------------------------ *)

(* Generate random parallel-loop programs: a few privatizable scratch
   structures (array / malloc'd buffer / struct), per-iteration
   init-then-use, and one sink: accumulation into shared state, or a
   DOALL store into [outs], which the domain executor distributes. The
   expanded T=4 run, the simulator at T=4 and 2 forced domains must
   each pass the verdict. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* iters = int_range 5 25 in
  let* asize = int_range 3 17 in
  let* use_heap = bool in
  let* use_struct = bool in
  let* use_helper = bool in
  let* use_field_ptr = bool in
  let* coeff = int_range 1 9 in
  let* sink =
    oneofl
      [
        "acc += s;";
        "results[it % 16] = s; acc = acc + results[it % 16] % 7;";
        "outs[it] = s;";
      ]
  in
  let scratch_decl, scratch_setup, scratch_free =
    if use_heap then
      ( "int *scratch;",
        Printf.sprintf
          "scratch = (int *)malloc(sizeof(int) * %d);" asize,
        "free(scratch);" )
    else (Printf.sprintf "int scratch[%d];" asize, "", "")
  in
  let struct_part =
    if use_struct then
      {|
    pair.lo = it * 2;
    pair.hi = pair.lo + 1;
    s += pair.hi - pair.lo;|}
    else ""
  in
  let helper_part =
    if use_helper then "s = mix(s, scratch, " ^ string_of_int asize ^ ");"
    else ""
  in
  let field_part =
    if use_field_ptr then
      {|
    slot.buf = scratch;
    slot.n = 3;
    s += slot.buf[slot.n - 1];|}
    else ""
  in
  return
    (Printf.sprintf
       {|
struct pr { int lo; int hi; };
struct ref { int *buf; int n; };
int results[16];
int outs[32];
int acc;
int mix(int seed, int *data, int n)
{
  int k;
  int t = seed;
  for (k = 0; k < n; k++) t = (t * 31 + data[k]) %% 65521;
  return t;
}
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < %d; it++) {
    %s
    struct pr pair;
    struct ref slot;
    int k;
    int s = 0;
    %s
    for (k = 0; k < %d; k++) scratch[k] = it * %d + k;
    for (k = 0; k < %d; k++) s += scratch[k];
    %s
    %s
    %s
    %s
    %s
  }
  printf("%%d %%d %%d %%d\n", acc, results[3], outs[0], outs[4]);
  return 0;
}|}
       iters scratch_decl scratch_setup asize coeff asize struct_part
       helper_part field_part sink scratch_free)

let random_preservation =
  QCheck.Test.make ~count:60
    ~name:"random programs: three executors pass the verdict"
    (QCheck.make gen_program ~print:(fun s -> s))
    (fun src ->
      let p, lid, r = analyze_first src in
      let oracle = Guard.Contract.oracle_of p [] in
      let res = Expand.Transform.expand p r in
      Judge.sequential oracle res 4;
      ignore
        (Judge.simulated oracle res [ Parexec.Sim.spec_of_analysis r ]
           ~threads:4);
      Judge.domains oracle res
        (Domexec.Exec.run ~domains:2 ~force:true
           res.Expand.Transform.transformed res.Expand.Transform.plan [ lid ]);
      true)

let structural_tests =
  [
    Alcotest.test_case "privatized counts" `Quick privatized_counts;
    Alcotest.test_case "selective promotion" `Quick selective_promotes_less;
    Alcotest.test_case "optimization reduces cycles" `Quick
      optimization_reduces_cycles;
    Alcotest.test_case "spans hold original sizes" `Quick
      spans_hold_original_sizes;
    Alcotest.test_case "expansion grows memory" `Quick expansion_grows_memory;
    Alcotest.test_case "doacross sync grows" `Quick doacross_sync_grows;
    Alcotest.test_case "runtime privatization baseline" `Quick
      runtimepriv_slower_same_output;
    QCheck_alcotest.to_alcotest random_preservation;
  ]

let () =
  Alcotest.run "expand"
    [
      ("sequential-equivalence", seq_tests);
      ("parallel-equivalence", par_tests);
      ("structure", structural_tests);
    ]
