(* Tests for the guard library and the degradation ladder: span guards
   on fat-pointer redirection, the privatization contract checker, and
   graceful degradation under injected faults — every degraded run must
   still produce the sequential oracle's output bit for bit. *)

open Minic

let setup_src name src =
  let prog = Typecheck.parse_and_check ~file:name src in
  let analyses =
    List.map (Privatize.Analyze.analyze prog) prog.Ast.parallel_loops
  in
  (prog, analyses)

(* One dijkstra parse + analysis + sequential oracle, shared by every
   test that needs a real privatizing workload. *)
let dijkstra =
  lazy
    (let w = Workloads.Registry.find "dijkstra" in
     let prog, analyses =
       setup_src w.Workloads.Workload.name w.Workloads.Workload.source
     in
     (prog, analyses, Guard.Contract.oracle_of prog analyses))

(* A loop whose accumulator carries a flow dependence: classified
   Shared when analysis is honest, and the canonical victim for a
   forced misclassification. *)
let accum_src = {|
int acc;
int hist[8];
int main(void)
{
  int i;
  acc = 0;
#pragma parallel
  for (i = 0; i < 8; i++) {
    acc = acc + i + 1;
    hist[i] = acc;
  }
  printf("%d\n", acc);
  return 0;
}|}

(* --- span guard ----------------------------------------------------- *)

let span_guard_tests =
  [
    Alcotest.test_case "silent on a correct expansion, but watching" `Quick
      (fun () ->
        let prog, analyses, _ = Lazy.force dijkstra in
        let res = Expand.Transform.expand_loops prog analyses in
        let specs = List.map Parexec.Sim.spec_of_analysis analyses in
        let guard = ref None in
        let attach m =
          guard := Some (Guard.Span_guard.attach res.Expand.Transform.plan m)
        in
        let pr =
          Parexec.Sim.run_parallel ~attach res.Expand.Transform.transformed
            specs ~threads:2
        in
        let g = Option.get !guard in
        Alcotest.(check bool) "simulated" true (pr.Parexec.Sim.pr_exit = 0);
        Alcotest.(check bool) "expanded blocks registered" true
          (Guard.Span_guard.registered g > 0);
        Alcotest.(check bool) "redirected accesses checked" true
          (Guard.Span_guard.checked g > 0));
    Alcotest.test_case "truncated spans trip the guard" `Quick (fun () ->
        let prog, analyses, _ = Lazy.force dijkstra in
        let res =
          Expand.Transform.expand_loops ~span_shrink:8 prog analyses
        in
        let specs = List.map Parexec.Sim.spec_of_analysis analyses in
        let attach m =
          ignore (Guard.Span_guard.attach res.Expand.Transform.plan m)
        in
        match
          Parexec.Sim.run_parallel ~attach res.Expand.Transform.transformed
            specs ~threads:2
        with
        | exception Guard.Violation.Violation v ->
          Alcotest.(check bool) "span guard fired" true
            (v.Guard.Violation.guard = Guard.Violation.Span_guard);
          Alcotest.(check bool) "access localized" true
            (v.Guard.Violation.access <> None)
        | _ -> Alcotest.fail "under-offset redirection ran unguarded");
  ]

(* --- contract checker ----------------------------------------------- *)

let contract_tests =
  [
    Alcotest.test_case "oracle replay of a faithful run passes" `Quick
      (fun () ->
        let prog, analyses, oracle = Lazy.force dijkstra in
        let res = Expand.Transform.expand_loops prog analyses in
        let specs = List.map Parexec.Sim.spec_of_analysis analyses in
        let checker = ref None in
        let attach m =
          checker :=
            Some (Guard.Contract.attach oracle res.Expand.Transform.plan m)
        in
        let pr =
          Parexec.Sim.run_parallel ~attach res.Expand.Transform.transformed
            specs ~threads:2
        in
        Guard.Contract.finalize (Option.get !checker);
        Alcotest.(check string) "output" oracle.Guard.Contract.o_output
          pr.Parexec.Sim.pr_output;
        (* with no analyses nothing is monitored: no streams, and the
           unobserved run ends exactly as the observed one *)
        let plain = Guard.Contract.oracle_of prog [] in
        let finals o =
          List.sort compare
            (Hashtbl.fold
               (fun x v acc -> (x, v) :: acc)
               o.Guard.Contract.o_finals [])
        in
        Alcotest.(check bool) "observed run has streams" true
          (Hashtbl.length oracle.Guard.Contract.o_streams > 0);
        Alcotest.(check int) "no streams" 0
          (Hashtbl.length plain.Guard.Contract.o_streams);
        Alcotest.(check string) "same output" oracle.Guard.Contract.o_output
          plain.Guard.Contract.o_output;
        Alcotest.(check int) "same exit code" oracle.Guard.Contract.o_exit
          plain.Guard.Contract.o_exit;
        Alcotest.(check (list (pair string string)))
          "same finals" (finals oracle) (finals plain));
    Alcotest.test_case "revalidation rejects an unprovable privatization"
      `Quick (fun () ->
        let prog, analyses = setup_src "accum" accum_src in
        let fault =
          Faultinject.Fault.make ~seed:2 Faultinject.Fault.Force_misclassify
        in
        let app = Faultinject.Fault.mangle fault prog analyses in
        Alcotest.(check bool) "fault flipped a verdict" true
          app.Faultinject.Fault.verdicts_changed;
        let res =
          Expand.Transform.expand_loops prog app.Faultinject.Fault.analyses
        in
        match
          Guard.Contract.revalidate res.Expand.Transform.plan analyses
        with
        | exception Guard.Violation.Violation v ->
          Alcotest.(check bool) "static contract" true
            (v.Guard.Violation.guard = Guard.Violation.Contract_static)
        | () -> Alcotest.fail "misclassification passed revalidation");
  ]

(* --- degradation ladder --------------------------------------------- *)

let ladder_tests =
  [
    Alcotest.test_case "clean run holds the static rung" `Quick (fun () ->
        let prog, analyses, oracle = Lazy.force dijkstra in
        let o =
          Harness.Ladder.run ~threads:2 ~reference:analyses ~oracle prog
            analyses
        in
        Alcotest.(check string) "rung" "static-expansion"
          (Harness.Ladder.rung_name o.Harness.Ladder.rung);
        Alcotest.(check int) "no diagnostics" 0
          (List.length o.Harness.Ladder.diagnostics);
        Alcotest.(check string) "output" oracle.Guard.Contract.o_output
          o.Harness.Ladder.output);
    Alcotest.test_case "guard trip degrades to runtime privatization" `Quick
      (fun () ->
        let prog, analyses, oracle = Lazy.force dijkstra in
        let o =
          Harness.Ladder.run ~threads:2 ~oracle ~span_shrink:8 prog analyses
        in
        Alcotest.(check bool) "fell off the static rung" true
          (o.Harness.Ladder.rung <> Harness.Ladder.Static_expansion);
        (match o.Harness.Ladder.diagnostics with
        | { Harness.Ladder.fell_from = Harness.Ladder.Static_expansion;
            trigger = Harness.Ladder.Guard_trip v;
          }
          :: _ ->
          Alcotest.(check bool) "localized" true
            (v.Guard.Violation.access <> None)
        | d :: _ ->
          Alcotest.fail
            ("unexpected first diagnostic: "
            ^ Harness.Ladder.diagnostic_to_string d)
        | [] -> Alcotest.fail "degraded without a diagnostic");
        Alcotest.(check string) "degraded output still exact"
          oracle.Guard.Contract.o_output o.Harness.Ladder.output);
    Alcotest.test_case "dynamic misclassification is caught by the contract"
      `Quick (fun () ->
        (* no reference classification: the fault must be caught at run
           time by the value-stream cross-check *)
        let prog, analyses = setup_src "accum" accum_src in
        let fault =
          Faultinject.Fault.make ~seed:2 Faultinject.Fault.Force_misclassify
        in
        let app = Faultinject.Fault.mangle fault prog analyses in
        let oracle = Guard.Contract.oracle_of prog analyses in
        let o =
          Harness.Ladder.run ~threads:2 ~oracle prog
            app.Faultinject.Fault.analyses
        in
        Alcotest.(check bool) "fell off the static rung" true
          (o.Harness.Ladder.rung <> Harness.Ladder.Static_expansion);
        (match o.Harness.Ladder.diagnostics with
        | { Harness.Ladder.trigger = Harness.Ladder.Guard_trip v; _ } :: _ ->
          Alcotest.(check bool) "caught by a dynamic guard" true
            (v.Guard.Violation.guard = Guard.Violation.Contract_stream
            || v.Guard.Violation.guard = Guard.Violation.Span_guard
            || v.Guard.Violation.guard = Guard.Violation.Contract_final)
        | { Harness.Ladder.trigger = Harness.Ladder.Output_mismatch; _ } :: _
          ->
          (* acceptable: divergence surfaced at the output compare *)
          ()
        | d :: _ ->
          Alcotest.fail
            ("unexpected first diagnostic: "
            ^ Harness.Ladder.diagnostic_to_string d)
        | [] -> Alcotest.fail "degraded without a diagnostic");
        Alcotest.(check string) "degraded output still exact"
          oracle.Guard.Contract.o_output o.Harness.Ladder.output);
    Alcotest.test_case "allocation failure degrades with exact output" `Quick
      (fun () ->
        let prog, analyses, oracle = Lazy.force dijkstra in
        let fault =
          Faultinject.Fault.make ~seed:4 (Faultinject.Fault.Alloc_failure 2)
        in
        let o =
          Harness.Ladder.run ~threads:2 ~oracle
            ~attach_extra:(Faultinject.Fault.attach_machine fault)
            prog analyses
        in
        Alcotest.(check bool) "fell off the static rung" true
          (o.Harness.Ladder.rung <> Harness.Ladder.Static_expansion);
        (match o.Harness.Ladder.diagnostics with
        | { Harness.Ladder.trigger = Harness.Ladder.Run_failure _; _ } :: _ ->
          ()
        | d :: _ ->
          Alcotest.fail
            ("unexpected first diagnostic: "
            ^ Harness.Ladder.diagnostic_to_string d)
        | [] -> Alcotest.fail "degraded without a diagnostic");
        Alcotest.(check string) "degraded output still exact"
          oracle.Guard.Contract.o_output o.Harness.Ladder.output);
  ]

(* --- violation plumbing --------------------------------------------- *)

let violation_tests =
  [
    Alcotest.test_case "fire raises with structured info" `Quick (fun () ->
        match
          Guard.Violation.fire Guard.Violation.Span_guard ~loop:3 ~access:7
            ~access_class:[ 7; 9 ] "copy %d" 2
        with
        | exception Guard.Violation.Violation v ->
          Alcotest.(check string) "detail" "copy 2" v.Guard.Violation.detail;
          Alcotest.(check (option int)) "loop" (Some 3) v.Guard.Violation.loop;
          Alcotest.(check (option int)) "access" (Some 7)
            v.Guard.Violation.access;
          Alcotest.(check bool) "to_string mentions the guard" true
            (String.length (Guard.Violation.to_string v) > 0)
        | _ -> Alcotest.fail "fire did not raise");
  ]

let () =
  Alcotest.run "guard"
    [
      ("span_guard", span_guard_tests);
      ("contract", contract_tests);
      ("ladder", ladder_tests);
      ("violation", violation_tests);
    ]
