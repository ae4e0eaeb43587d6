(* Tests for the interleaved expansion mode (Figure 2b) and the
   bonded-vs-interleaved ablation the paper argues in §3.1. *)

open Minic

let analyze_first src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  let lid = List.hd p.Ast.parallel_loops in
  (p, lid, Privatize.Analyze.analyze p lid)

(* A struct of primitive members, reinitialized every iteration: the
   shape both layouts can handle. *)
let struct_src = {|
struct acc { int lo; int hi; int cnt; double mean; };
struct acc st;
int out[40];
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < 40; it++) {
    st.lo = 1 << 29;
    st.hi = -1 - (1 << 29);
    st.cnt = 0;
    st.mean = 0.0;
    int j;
    for (j = 0; j < 24; j++) {
      int v = (it * 37 + j * j) % 100;
      if (v < st.lo) st.lo = v;
      if (v > st.hi) st.hi = v;
      st.cnt = st.cnt + 1;
      st.mean = st.mean + (v - st.mean) / st.cnt;
    }
    out[it] = st.hi - st.lo + (int)st.mean;
  }
  int s = 0;
  int i;
  for (i = 0; i < 40; i++) s += out[i];
  printf("%d\n", s);
  return 0;
}|}

(* bzip2's recast shape: interleaving cannot lay this out. *)
let recast_src = {|
int acc;
int *zptr;
int main(void)
{
  zptr = (int *)malloc(64);
  int it;
#pragma parallel
  for (it = 0; it < 10; it++) {
    int k;
    for (k = 0; k < 16; k++) zptr[k] = it + k;
    short *sp = (short *)zptr;
    int s = 0;
    for (k = 0; k < 32; k++) s += sp[k];
    acc += s;
  }
  printf("%d\n", acc);
  free(zptr);
  return 0;
}|}

let interleaved_preserves_semantics () =
  let p, _, r = analyze_first struct_src in
  let oracle = Guard.Contract.oracle_of p [] in
  let res = Expand.Transform.expand ~mode:Expand.Plan.Interleaved p r in
  List.iter (Judge.sequential oracle res) [ 1; 3; 8 ]

let interleaved_parallel_equiv () =
  let p, _, r = analyze_first struct_src in
  let oracle = Guard.Contract.oracle_of p [] in
  let res = Expand.Transform.expand ~mode:Expand.Plan.Interleaved p r in
  let spec = Parexec.Sim.spec_of_analysis r in
  List.iter
    (fun threads -> ignore (Judge.simulated oracle res [ spec ] ~threads))
    [ 2; 8 ]

let interleaved_rejects_recast () =
  let p, _, r = analyze_first recast_src in
  match Expand.Transform.expand ~mode:Expand.Plan.Interleaved p r with
  | exception Expand.Transform.Unsupported _ -> ()
  | _ -> Alcotest.fail "interleaved mode must reject the recast program"

let bonded_handles_recast () =
  let p, _, r = analyze_first recast_src in
  let res = Expand.Transform.expand p r in
  Judge.sequential (Guard.Contract.oracle_of p []) res 4

(* The ablation of §3.1: bonded keeps a thread's copy in one cache
   line, interleaving scatters its members over several. Under the
   cache model, the bonded layout's sequential run must not be slower. *)
let bonded_locality_ablation () =
  let p, lid, r = analyze_first struct_src in
  let cycles mode =
    let res = Expand.Transform.expand ~mode p r in
    let seq =
      Parexec.Sim.run_sequential res.Expand.Transform.transformed [ lid ]
    in
    seq.Parexec.Sim.sq_total
  in
  let bonded = cycles Expand.Plan.Bonded in
  let inter = cycles Expand.Plan.Interleaved in
  Alcotest.(check bool)
    (Printf.sprintf "bonded (%d) <= interleaved (%d)" bonded inter)
    true (bonded <= inter)

let () =
  Alcotest.run "interleaved"
    [
      ( "interleaved",
        [
          Alcotest.test_case "preserves semantics" `Quick
            interleaved_preserves_semantics;
          Alcotest.test_case "parallel equivalence" `Quick
            interleaved_parallel_equiv;
          Alcotest.test_case "rejects recast" `Quick interleaved_rejects_recast;
          Alcotest.test_case "bonded handles recast" `Quick
            bonded_handles_recast;
          Alcotest.test_case "locality ablation" `Quick
            bonded_locality_ablation;
        ] );
    ]
