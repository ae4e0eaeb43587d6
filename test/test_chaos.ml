(* Chaos suite for the supervised domain executor: every workload, in
   both expansion layouts, under seeded domain-level faults — crashes,
   stalls (watchdog), write-log corruption, steal contention. The
   invariant under all of them: the recovered output is byte-identical
   to the sequential oracle (output, exit code, final globals), and
   the degradation ladder lands on the expected rung.

   Faults fire only on distributed loops (they are armed at chunk
   acquisition / merge), so on a workload whose loops all replicate
   the supervisor legitimately completes clean; every assertion on
   recovery is therefore conditional on the fault having actually
   fired, which the supervisor's counters report. *)

let outcome_str (sup : Domexec.Supervisor.t) =
  Domexec.Supervisor.outcome_to_string sup.Domexec.Supervisor.sup_outcome

(* Supervised run of an expanded program, judged by the verdict. *)
let check_identical name oracle res (sup : Domexec.Supervisor.t) =
  match sup.Domexec.Supervisor.sup_result with
  | None ->
    Alcotest.failf "%s: supervision aborted: %s\n%s" name (outcome_str sup)
      (String.concat "\n"
         (List.map Guard.Diag.sup_event_to_string
            sup.Domexec.Supervisor.sup_events))
  | Some r -> Judge.domains oracle res r

let chaos_on (b : Harness.Bench_run.t) (res : Expand.Transform.result)
    ~(layout : string) : unit =
  let oracle = Lazy.force b.Harness.Bench_run.contract_oracle in
  let prog = res.Expand.Transform.transformed in
  let plan = res.Expand.Transform.plan in
  let lids = b.Harness.Bench_run.lids in
  let sup_run ?retry ?watchdog_ms fault =
    Domexec.Supervisor.run ~domains:2 ~force:true ?retry ?watchdog_ms ~fault
      prog plan lids
  in
  let name k = Printf.sprintf "%s/%s" layout k in

  (* Seeded crash at a chunk boundary: the chunk is retried and the
     run recovers, or (no distributed loop) nothing fires. *)
  let sup =
    sup_run (Faultinject.Fault.make ~seed:101 (Faultinject.Fault.Domain_crash 1))
  in
  check_identical (name "crash") oracle res sup;
  if sup.Domexec.Supervisor.sup_crashes > 0 then
    Alcotest.(check string) (name "crash: recovered") "recovered"
      (outcome_str sup);

  (* Seeded stall: the injected stall holds its chunk until the abort
     pill is set, so the watchdog fires at ANY limit — but the limit
     must sit well above the workload's natural per-chunk time or the
     recovery attempts' innocent chunks trip it too. *)
  let sup =
    sup_run ~watchdog_ms:2000
      (Faultinject.Fault.make ~seed:102 (Faultinject.Fault.Domain_stall 1))
  in
  check_identical (name "stall") oracle res sup;
  if sup.Domexec.Supervisor.sup_stalls > 0 then begin
    Alcotest.(check bool) (name "stall: watchdog fired") true
      (sup.Domexec.Supervisor.sup_watchdog_fires > 0);
    Alcotest.(check string) (name "stall: recovered") "recovered"
      (outcome_str sup)
  end;

  (* Seeded write-log corruption: injected after the chunk's digest is
     taken, so the merge-time re-verification must catch every actual
     byte flip before it can reach memory or output. *)
  let sup =
    sup_run
      (Faultinject.Fault.make ~seed:103 (Faultinject.Fault.Writelog_corrupt 1))
  in
  check_identical (name "corrupt") oracle res sup;
  if sup.Domexec.Supervisor.sup_corruptions > 0 then begin
    Alcotest.(check int) (name "corrupt: every corruption detected")
      sup.Domexec.Supervisor.sup_corruptions
      sup.Domexec.Supervisor.sup_corruptions_detected;
    Alcotest.(check string) (name "corrupt: recovered") "recovered"
      (outcome_str sup)
  end;

  (* Forced steal-CAS losses: pure contention, no lost work — the home
     domain always pops an unstolen chunk — so the run completes clean
     on the first attempt. *)
  let sup =
    sup_run
      (Faultinject.Fault.make ~seed:104 (Faultinject.Fault.Steal_contention 8))
  in
  check_identical (name "steal-contention") oracle res sup;
  Alcotest.(check string) (name "steal-contention: clean") "completed"
    (outcome_str sup)

(* A crash budget far beyond the retry budget: supervision aborts and
   the ladder must fall to the static-expansion rung — with the abort
   explained by a retry-exhausted diagnostic — while the output stays
   oracle-identical. Workloads with no distributed loop never consume
   the budget and legitimately hold the top rung. *)
let ladder_exhaustion (b : Harness.Bench_run.t) : unit =
  let oracle = Lazy.force b.Harness.Bench_run.contract_oracle in
  let o =
    Harness.Ladder.run ~threads:2
      ~reference:b.Harness.Bench_run.analyses ~oracle ~exec:`Domains
      ~domains:2 ~force:true ~retry:2
      ~fault:(Faultinject.Fault.make ~seed:105 (Faultinject.Fault.Domain_crash 99))
      b.Harness.Bench_run.prog b.Harness.Bench_run.analyses
  in
  Alcotest.(check string)
    "exhaustion: output byte-identical" oracle.Guard.Contract.o_output
    o.Harness.Ladder.output;
  Alcotest.(check int)
    "exhaustion: exit code" oracle.Guard.Contract.o_exit
    o.Harness.Ladder.exit_code;
  match o.Harness.Ladder.dom_sup with
  | Some sup when sup.Domexec.Supervisor.sup_crashes > 0 ->
    Alcotest.(check string) "exhaustion: fell to static expansion"
      "static-expansion"
      (Harness.Ladder.rung_name o.Harness.Ladder.rung);
    (match o.Harness.Ladder.diagnostics with
    | { Harness.Ladder.fell_from = Harness.Ladder.Domains;
        trigger = Harness.Ladder.Retry_exhausted _;
      }
      :: _ ->
      ()
    | d :: _ ->
      Alcotest.failf "exhaustion: unexpected first diagnostic: %s"
        (Harness.Ladder.diagnostic_to_string d)
    | [] -> Alcotest.fail "exhaustion: fell without a diagnostic")
  | _ ->
    Alcotest.(check string) "exhaustion: no distributed loop, rung held"
      "domains"
      (Harness.Ladder.rung_name o.Harness.Ladder.rung)

(* One test case per workload (the pipeline load dominates the heavy
   workloads, so both layouts and the ladder share one [Bench_run]). *)
let workload_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case w.Workloads.Workload.name `Slow (fun () ->
          let b = Harness.Bench_run.load w in
          chaos_on b b.Harness.Bench_run.expanded ~layout:"bonded";
          (match
             Expand.Transform.expand_loops ~mode:Expand.Plan.Interleaved
               b.Harness.Bench_run.prog b.Harness.Bench_run.analyses
           with
          | res -> chaos_on b res ~layout:"interleaved"
          | exception Expand.Transform.Unsupported _ -> ());
          ladder_exhaustion b))
    Workloads.Registry.all

let () = Alcotest.run "chaos" [ ("workloads", workload_cases) ]
