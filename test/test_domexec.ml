(* Tests for the real-multicore domain executor: the Chase-Lev deque's
   laws (sequential model + multi-domain stress), the scheduler's
   determinism against the sequential original on every workload and
   layout, the pre-pass's loop reports and demotion reasons, induction
   delta-merging, replication fallbacks, the one-machine run when no
   loop distributes, and the steal counter under imbalanced chunking.

   Parallel runs use [force:true] so the scheduler path is exercised
   even on a 1-core host (domains are correct on any core count, just
   not faster). *)

open Minic

(* ------------------------------------------------------------------ *)
(* Deque laws                                                          *)
(* ------------------------------------------------------------------ *)

type op = Push | Pop | Steal

let gen_ops : op list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency [ (3, return Push); (2, return Pop); (2, return Steal) ]))

let show_ops ops =
  String.concat ""
    (List.map (function Push -> "u" | Pop -> "o" | Steal -> "s") ops)

(* Single-threaded there is no contention, so a [Steal_lost] can only
   come from the owner's own last-element pop racing itself — retrying
   resolves it immediately. *)
let rec steal_opt q =
  match Domexec.Deque.steal q with
  | Domexec.Deque.Stolen v -> Some v
  | Domexec.Deque.Steal_empty -> None
  | Domexec.Deque.Steal_lost -> steal_opt q

(* Single-threaded, the deque must behave exactly like a two-ended
   list: push/pop at the bottom, steal at the top. No task is ever
   lost or duplicated. *)
let deque_model_law =
  QCheck.Test.make ~count:500 ~name:"deque matches two-ended list model"
    (QCheck.make gen_ops ~print:show_ops) (fun ops ->
      let q = Domexec.Deque.create ~capacity:256 () in
      (* model: head = top (steal side), last = bottom (push/pop side) *)
      let model = ref [] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push ->
            Domexec.Deque.push q !next;
            model := !model @ [ !next ];
            incr next
          | Pop ->
            let expect =
              match List.rev !model with
              | [] -> None
              | last :: rest ->
                model := List.rev rest;
                Some last
            in
            if Domexec.Deque.pop q <> expect then ok := false
          | Steal ->
            let expect =
              match !model with
              | [] -> None
              | top :: rest ->
                model := rest;
                Some top
            in
            if steal_opt q <> expect then ok := false)
        ops;
      (* drain: everything still in the model comes back, in order *)
      List.iter (fun v -> if steal_opt q <> Some v then ok := false) !model;
      if Domexec.Deque.pop q <> None then ok := false;
      !ok)

let steal_if_law =
  QCheck.Test.make ~count:200 ~name:"steal_if only takes matching heads"
    QCheck.(make Gen.(list_size (int_range 1 50) (int_range 0 100)))
    (fun items ->
      let q = Domexec.Deque.create ~capacity:64 () in
      List.iter (Domexec.Deque.push q) items;
      let pred v = v mod 2 = 0 in
      match (Domexec.Deque.steal_if pred q, items) with
      | Domexec.Deque.Steal_empty, top :: _ -> not (pred top)
      | Domexec.Deque.Stolen v, top :: _ -> pred v && v = top
      | Domexec.Deque.Steal_empty, [] -> true
      | Domexec.Deque.Stolen _, [] -> false
      | Domexec.Deque.Steal_lost, _ -> false (* no contention here *))

(* Owner pushes and pops at the bottom while [nthieves] thief domains
   steal from the top: every item is seen exactly once, and a lost CAS
   ([Steal_lost]) never loses the element itself — the thieves retry
   and the drain below accounts for every item. With four thieves the
   top-end CAS is under real contention, so [Steal_lost] is exercised,
   not just represented. *)
let stress_no_lost_or_duplicated ~nthieves () =
  let n_items = 20000 in
  let q = Domexec.Deque.create ~capacity:32768 () in
  let owner_done = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go () =
      match Domexec.Deque.steal q with
      | Domexec.Deque.Stolen v ->
        mine := v :: !mine;
        go ()
      | Domexec.Deque.Steal_lost -> go () (* element may remain: retry *)
      | Domexec.Deque.Steal_empty ->
        if Atomic.get owner_done && Domexec.Deque.is_empty q then !mine
        else go ()
    in
    go ()
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  let owned = ref [] in
  (* push in bursts, pop a few back: exercises the bottom end against
     concurrent top-end steals, including the one-element race *)
  let i = ref 0 in
  while !i < n_items do
    let burst = min 64 (n_items - !i) in
    for k = 0 to burst - 1 do
      Domexec.Deque.push q (!i + k)
    done;
    i := !i + burst;
    for _ = 1 to 16 do
      match Domexec.Deque.pop q with
      | Some v -> owned := v :: !owned
      | None -> ()
    done
  done;
  let rec drain () =
    match Domexec.Deque.pop q with
    | Some v ->
      owned := v :: !owned;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set owner_done true;
  let stolen = Array.to_list (Array.map Domain.join thieves) in
  let seen = Array.make n_items 0 in
  List.iter
    (fun v -> seen.(v) <- seen.(v) + 1)
    (!owned @ List.concat stolen);
  Array.iteri
    (fun v c ->
      if c <> 1 then
        Alcotest.failf "item %d seen %d times (lost or duplicated)" v c)
    seen

(* ------------------------------------------------------------------ *)
(* Executor on small programs                                          *)
(* ------------------------------------------------------------------ *)

let expand src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  let lids = p.Ast.parallel_loops in
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  let res = Expand.Transform.expand_loops p analyses in
  (p, lids, res)

let run_domains ?(domains = 2) ?chunk src =
  let p, lids, res = expand src in
  let code0, out0 = Interp.Machine.run_program p in
  let r =
    Domexec.Exec.run ~domains ?chunk ~force:true
      res.Expand.Transform.transformed res.Expand.Transform.plan lids
  in
  Alcotest.(check string) "output" out0 r.Domexec.Exec.dx_output;
  Alcotest.(check int) "exit code" code0 r.Domexec.Exec.dx_exit;
  r

let first_decision (r : Domexec.Exec.result) =
  match r.Domexec.Exec.dx_loops with
  | lr :: _ -> lr.Domexec.Exec.lr_decision
  | [] -> Alcotest.fail "no parallel loop reported"

let doall_src = {|
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) out[i] = i * 3 % 17;
  int s = 0;
  for (i = 0; i < 64; i++) s += out[i];
  printf("%d\n", s);
  return 0;
}|}

let distributes_doall () =
  let r = run_domains ~domains:2 doall_src in
  (match first_decision r with
  | Domexec.Exec.Distributed -> ()
  | Domexec.Exec.Replicated why ->
    Alcotest.failf "expected distribution, replicated: %s" why);
  Alcotest.(check int) "one merge" 1 r.Domexec.Exec.dx_merges;
  Alcotest.(check bool) "both domains ran chunks" true
    (Array.for_all (fun c -> c > 0) r.Domexec.Exec.dx_chunks_run)

(* A shared counter bumped once per iteration is an induction variable:
   it must be delta-merged across domains, not write-logged (each
   domain only sees its own bumps during the loop). *)
let induction_src = {|
int hits;
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) { out[i] = i * 3; hits = hits + 1; }
  printf("%d %d\n", hits, out[63]);
  return 0;
}|}

let delta_merges_induction () =
  let r = run_domains ~domains:4 induction_src in
  match first_decision r with
  | Domexec.Exec.Distributed -> ()
  | Domexec.Exec.Replicated why ->
    Alcotest.failf "induction loop should distribute, replicated: %s" why

(* Per-iteration output must be spliced back into sequential order. *)
let output_src = {|
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 37; i++) printf("%d:%d ", i, i * i % 11);
  printf("end\n");
  return 0;
}|}

let splices_output () = ignore (run_domains ~domains:3 ~chunk:4 output_src)

(* Allocation inside the body makes iterations unsafe to distribute
   (addresses diverge between machines): the loop must replicate and
   still produce identical output. *)
let alloc_src = {|
int out[16];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 16; i++) {
    int *p = (int *)malloc(sizeof(int) * 4);
    p[0] = i * 5;
    out[i] = p[0] + 1;
    free(p);
  }
  printf("%d\n", out[15]);
  return 0;
}|}

let replicates_on_alloc () =
  let r = run_domains ~domains:2 alloc_src in
  match first_decision r with
  | Domexec.Exec.Replicated _ -> ()
  | Domexec.Exec.Distributed ->
    Alcotest.fail "allocating loop must not be distributed"

(* A loop-carried flow dependence must be detected by the pre-pass and
   replicated (running it chunked would read stale values). *)
let carried_src = {|
int acc[33];
int main(void)
{
  int i;
  acc[0] = 1;
#pragma parallel
  for (i = 1; i < 33; i++) acc[i] = acc[i - 1] + i;
  printf("%d\n", acc[32]);
  return 0;
}|}

let replicates_on_carried_dep () =
  let r = run_domains ~domains:2 carried_src in
  match first_decision r with
  | Domexec.Exec.Replicated _ -> ()
  | Domexec.Exec.Distributed ->
    Alcotest.fail "loop-carried flow must not be distributed"

let zero_trip_src = {|
int n;
int out[8];
int main(void)
{
  int i;
  n = 0;
#pragma parallel
  for (i = 0; i < n; i++) out[i] = i;
  printf("%d\n", n);
  return 0;
}|}

let zero_trip () = ignore (run_domains ~domains:2 zero_trip_src)

(* ------------------------------------------------------------------ *)
(* Pre-pass demotions                                                  *)
(* ------------------------------------------------------------------ *)

(* One source per demotion reason: each program's first loop must
   replicate for exactly that reason, any later loop must distribute,
   and the run must still match the original program's output and exit
   code. *)
let demotions =
  [
    ( "step reads body data",
      "the step reads data written by the loop body",
      {|
int out[40];
int step;
int main(void)
{
  int i;
  step = 1;
#pragma parallel
  for (i = 0; i < 32; i = i + step) { out[i] = i * 7; step = 1 + i % 2; }
  printf("%d %d %d\n", out[0], out[31], step);
  return 0;
}|} );
    ( "induction updated in body and step",
      "induction variable updated in both body and step",
      {|
int k;
int out[64];
int main(void)
{
#pragma parallel
  for (k = 0; k < 60; k = k + 1) { out[k] = k * 3; k = k + 1; }
  printf("%d %d %d\n", k, out[0], out[58]);
  return 0;
}|} );
    ( "induction read outside its update",
      "induction value read outside its own update",
      {|
int hits;
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) { hits = hits + 1; out[i] = hits * 2; }
  printf("%d %d\n", hits, out[63]);
  return 0;
}|} );
    ( "rand in the body",
      "rand() advances inside the loop",
      {|
int out[32];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 32; i++) out[i] = rand() % 100;
  printf("%d %d\n", out[0], out[31]);
  return 0;
}|} );
    ( "body break",
      "the loop body may break",
      {|
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) {
    if (i == 40) break;
    out[i] = i + 1;
  }
  printf("%d %d\n", out[39], out[40]);
  return 0;
}|} );
    (* a return leaves the first loop: the second one, in main, is
       not nested in it *)
    ( "body return, then a DOALL loop",
      "the loop body may return from the function",
      {|
int tmp[4];
int out[64];
long b[64];
int f(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) {
    tmp[0] = i * 3;
    out[i] = tmp[0] + 1;
    if (i == 40) return i;
  }
  return 0;
}
int main(void)
{
  int i;
  long s = 0;
  int r = f();
#pragma parallel
  for (i = 0; i < 64; i++) b[i] = b[i] + i * 5;
  for (i = 0; i < 64; i++) s = s + b[i];
  printf("%d %d %ld\n", r, tmp[0], s);
  return 0;
}|} );
    (* strlen reads the bytes earlier iterations stored: a flow the
       access observer never sees, reported by the read hook *)
    ( "strlen reads another iteration's string",
      "loop-carried flow dependence",
      {|
char buf[64];
int lens[32];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 32; i++) {
    lens[i] = strlen(buf);
    buf[i] = 97;
    buf[i + 1] = 0;
  }
  printf("%d %d\n", lens[1], lens[31]);
  return 0;
}|} );
    (* the loop function's own locals carry values across iterations:
       a reduction into a local, and a step reading a local the body
       writes *)
    ( "reduction into a local",
      "loop-carried flow dependence",
      {|
int x[64];
int main(void)
{
  int i;
  int acc = 0;
  for (i = 0; i < 64; i++) x[i] = i * 3 + 1;
#pragma parallel
  for (i = 0; i < 64; i++) acc = acc + x[i];
  printf("%d\n", acc);
  return 0;
}|} );
    ( "step reads a local the body writes",
      "the step reads data written by the loop body",
      {|
int out[64];
int main(void)
{
  int i;
  int step = 1;
#pragma parallel
  for (i = 0; i < 60; i = i + step) { step = 1 + i % 2; out[i] = i * 3; }
  printf("%d %d %d\n", out[0], out[58], out[59]);
  return 0;
}|} );
    (* a shadow page covers 32 KiB: the flow runs 32 KiB past the
       array's first elements, which every iteration also reads *)
    ( "carried flow past the first shadow page",
      "loop-carried flow dependence",
      {|
int big[16384];
int main(void)
{
  int i;
  for (i = 0; i < 16384; i++) big[i] = i % 13;
#pragma parallel
  for (i = 1; i < 16; i++) big[8192 + i] = big[8192 + i - 1] + big[i];
  printf("%d\n", big[8192 + 15]);
  return 0;
}|} );
  ]

let demotion_cases =
  List.map
    (fun (name, why, src) ->
      Alcotest.test_case name `Quick (fun () ->
          let r = run_domains ~domains:2 src in
          Alcotest.(check string)
            "decision"
            ("replicated (" ^ why ^ ")")
            (Domexec.Exec.decision_to_string (first_decision r));
          List.iter
            (fun (lr : Domexec.Exec.loop_report) ->
              Alcotest.(check string)
                (Printf.sprintf "loop %d" lr.Domexec.Exec.lr_lid)
                "distributed"
                (Domexec.Exec.decision_to_string lr.Domexec.Exec.lr_decision))
            (List.tl r.Domexec.Exec.dx_loops)))
    demotions

(* ------------------------------------------------------------------ *)
(* One machine when nothing distributes                                *)
(* ------------------------------------------------------------------ *)

(* The only loop replicates, so the pre-pass run is the result: one
   machine, no chunks, no recorded attempt, and the program's own exit
   code from a call to exit() after the loop. *)
let exit_src = {|
int acc[33];
int main(void)
{
  int i;
  acc[0] = 1;
#pragma parallel
  for (i = 1; i < 33; i++) acc[i] = acc[i - 1] + i;
  printf("%d\n", acc[32]);
  exit(3);
  return 0;
}|}

let replay_skip () =
  let p, lids, res = expand exit_src in
  let code0, out0 = Interp.Machine.run_program p in
  Alcotest.(check int) "the original exits with 3" 3 code0;
  let tr = Domexec.Domtrace.create () in
  let r =
    Domexec.Exec.run ~domains:2 ~force:true ~trace:tr
      res.Expand.Transform.transformed res.Expand.Transform.plan lids
  in
  Alcotest.(check int) "one machine" 1 r.Domexec.Exec.dx_domains;
  Alcotest.(check (option string))
    "fallback reason"
    (Some "no loop iteration distributes; the pre-pass run is the result")
    r.Domexec.Exec.dx_fallback;
  Alcotest.(check int)
    "no chunks" 0
    (Array.fold_left ( + ) 0 r.Domexec.Exec.dx_chunks_run);
  Alcotest.(check string) "output" out0 r.Domexec.Exec.dx_output;
  Alcotest.(check int) "exit code" 3 r.Domexec.Exec.dx_exit;
  Alcotest.(check string)
    "loop report" "replicated (loop-carried flow dependence)"
    (Domexec.Exec.decision_to_string (first_decision r));
  Guard.Contract.check_finals
    (Guard.Contract.oracle_of p [])
    res.Expand.Transform.plan r.Domexec.Exec.dx_machine;
  Alcotest.(check int)
    "recorder holds no attempt" 0
    (Domexec.Domtrace.attempt_count tr);
  let st = r.Domexec.Exec.dx_machine.Interp.Machine.st in
  Alcotest.(check bool)
    "pre-pass hooks cleared" true
    (st.Interp.Machine.observer = None
    && st.Interp.Machine.loop_hook = None
    && st.Interp.Machine.bulk_hook = None
    && st.Interp.Machine.read_hook = None
    && st.Interp.Machine.alloc_hook = None
    && st.Interp.Machine.free_hook = None)

(* ------------------------------------------------------------------ *)
(* Steal counter under imbalanced chunking                             *)
(* ------------------------------------------------------------------ *)

(* Two huge chunks on four domains: domains 2 and 3 own nothing and
   try to steal the second chunk from domain 1's deque the moment they
   enter the loop, while domain 1 must first traverse 20000 iterations
   to reach it. The race is overwhelmingly in the thieves' favor but
   not deterministic, so retry a few times and require at least one
   steal overall. Output correctness is asserted on every attempt. *)
let steal_src = {|
int out[40000];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 40000; i++) out[i] = i % 7;
  printf("%d %d\n", out[0], out[39999]);
  return 0;
}|}

let steals_under_imbalance () =
  let rec attempt k total =
    if total >= 1 then ()
    else if k = 0 then
      Alcotest.failf "no steal observed in any attempt (total %d)" total
    else
      let r = run_domains ~domains:4 ~chunk:20000 steal_src in
      attempt (k - 1) (total + r.Domexec.Exec.dx_steals)
  in
  attempt 10 0

(* ------------------------------------------------------------------ *)
(* Determinism against the oracle: every workload, every layout        *)
(* ------------------------------------------------------------------ *)

(* Every workload's loop reports (lid, decision, invocations,
   iterations) at 2 domains, the same in both layouts: the pre-pass
   must keep making exactly these decisions. *)
let expected_reports =
  [
    ("dijkstra", [ (8, "replicated (allocates inside the loop body)", 1, 96) ]);
    ("md5", [ (7, "distributed", 1, 128) ]);
    ("mpeg2-encoder", [ (12, "distributed", 1, 48) ]);
    ("mpeg2-decoder", [ (15, "distributed", 1, 48) ]);
    ( "h263-encoder",
      [ (10, "distributed", 1, 40); (11, "distributed", 1, 40) ] );
    ("256.bzip2", [ (17, "replicated (loop-carried flow dependence)", 1, 96) ]);
    ("456.hmmer", [ (11, "replicated (loop-carried flow dependence)", 1, 64) ]);
    ("470.lbm", [ (7, "distributed", 4, 760) ]);
  ]

let check_workload (b : Harness.Bench_run.t)
    (res : Expand.Transform.result) ~(domains : int) : unit =
  let oracle = Lazy.force b.Harness.Bench_run.contract_oracle in
  let r =
    Domexec.Exec.run ~domains ~force:true res.Expand.Transform.transformed
      res.Expand.Transform.plan b.Harness.Bench_run.lids
  in
  Alcotest.(check string)
    "output byte-identical" oracle.Guard.Contract.o_output
    r.Domexec.Exec.dx_output;
  Alcotest.(check int)
    "exit code" oracle.Guard.Contract.o_exit r.Domexec.Exec.dx_exit;
  Guard.Contract.check_finals oracle res.Expand.Transform.plan
    r.Domexec.Exec.dx_machine;
  let name = b.Harness.Bench_run.workload.Workloads.Workload.name in
  Alcotest.(check (list (pair (pair int string) (pair int int))))
    "loop reports"
    (List.map
       (fun (lid, d, inv, it) -> ((lid, d), (inv, it)))
       (List.assoc name expected_reports))
    (List.map
       (fun (lr : Domexec.Exec.loop_report) ->
         ( ( lr.Domexec.Exec.lr_lid,
             Domexec.Exec.decision_to_string lr.Domexec.Exec.lr_decision ),
           (lr.Domexec.Exec.lr_invocations, lr.Domexec.Exec.lr_iterations) ))
       r.Domexec.Exec.dx_loops)

let workload_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case w.Workloads.Workload.name `Slow (fun () ->
          let b = Harness.Bench_run.load w in
          check_workload b b.Harness.Bench_run.expanded ~domains:2;
          (* the interleaved layout, where the transformer supports it *)
          match
            Expand.Transform.expand_loops ~mode:Expand.Plan.Interleaved
              b.Harness.Bench_run.prog b.Harness.Bench_run.analyses
          with
          | res -> check_workload b res ~domains:2
          | exception Expand.Transform.Unsupported _ -> ()))
    Workloads.Registry.all

let () =
  Alcotest.run "domexec"
    [
      ( "deque",
        [
          QCheck_alcotest.to_alcotest deque_model_law;
          QCheck_alcotest.to_alcotest steal_if_law;
          Alcotest.test_case "2-thief stress" `Quick
            (stress_no_lost_or_duplicated ~nthieves:2);
          Alcotest.test_case "4-thief contention stress" `Quick
            (stress_no_lost_or_duplicated ~nthieves:4);
        ] );
      ( "executor",
        [
          Alcotest.test_case "distributes DOALL" `Quick distributes_doall;
          Alcotest.test_case "delta-merges induction" `Quick
            delta_merges_induction;
          Alcotest.test_case "splices output" `Quick splices_output;
          Alcotest.test_case "replicates on alloc" `Quick replicates_on_alloc;
          Alcotest.test_case "replicates on carried dep" `Quick
            replicates_on_carried_dep;
          Alcotest.test_case "zero-trip loop" `Quick zero_trip;
          Alcotest.test_case "one machine when nothing distributes" `Quick
            replay_skip;
          Alcotest.test_case "steals under imbalance" `Quick
            steals_under_imbalance;
        ] );
      ("demotions", demotion_cases);
      ("workloads", workload_cases);
    ]
