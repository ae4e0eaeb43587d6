(* Tests for the cross-domain critical-path profiler: the artifact's
   base object (schedule, counts, virtual-time model) must be
   byte-identical across two runs of a race-free schedule, the
   reconstructed DAG must be structurally sane on a real traced run,
   and the causal what-if table must behave like one — shrinking a
   segment class never slows the modeled wall clock, shrinking it
   harder never helps less, and barrier slack is never a target. *)

module Critpath = Domexec.Critpath
module Domtrace = Domexec.Domtrace

let md5 = lazy (Harness.Bench_run.load (Workloads.Registry.find "md5"))

let traced_run ?gc ?chunk (b : Harness.Bench_run.t) =
  let res = b.Harness.Bench_run.expanded in
  let tr = Domtrace.create ?gc () in
  let r =
    Domexec.Exec.run ~domains:2 ~force:true ?chunk ~trace:tr
      res.Expand.Transform.transformed res.Expand.Transform.plan
      b.Harness.Bench_run.lids
  in
  Judge.domains (Lazy.force b.Harness.Bench_run.contract_oracle) res r;
  tr

let seq_cycles =
  lazy
    (Lazy.force (Lazy.force md5).Harness.Bench_run.contract_oracle)
      .Guard.Contract.o_cycles

(* Determinism: a single-chunk schedule is race-free (the only chunk is
   home-owned, the thief's probe is refused), so with GC sampling off
   two runs must serialize the same base artifact — the part CI
   byte-compares. seq_cycles comes from the deterministic interpreter,
   so including the model speedup keeps the bytes stable too. *)
let deterministic () =
  let artifact () =
    let tr = traced_run ~gc:false ~chunk:1_000_000 (Lazy.force md5) in
    let p = Critpath.analyze tr in
    Telemetry.Json.to_string
      (Critpath.to_json ~seq_cycles:(Lazy.force seq_cycles) p)
  in
  let a1 = artifact () in
  let a2 = artifact () in
  Alcotest.(check bool) "artifact non-trivial" true (String.length a1 > 200);
  Alcotest.(check string) "byte-identical across runs" a1 a2

(* Structural sanity on a default chunked, GC-sampled run. *)
let structure () =
  let tr = traced_run (Lazy.force md5) in
  let p = Critpath.analyze tr in
  Alcotest.(check int) "two domains" 2 (Critpath.domains p);
  Alcotest.(check bool) "at least one attempt" true (Critpath.attempts p >= 1);
  Alcotest.(check bool) "virtual critical path positive" true
    (Critpath.vt_critpath p > 0);
  Alcotest.(check bool) "measured wall positive" true
    (Critpath.wall_ns p > 0.0);
  let par = Critpath.model_parallelism p in
  Alcotest.(check bool)
    (Printf.sprintf "parallelism %.3f within [1, domains]" par)
    true
    (par >= 1.0 && par <= 2.0 +. 1e-6);
  let model = Critpath.model_speedup p ~seq_cycles:(Lazy.force seq_cycles) in
  Alcotest.(check bool)
    (Printf.sprintf "model speedup %.3f positive" model)
    true (model > 0.0);
  let cls, share = Critpath.dominant p in
  Alcotest.(check bool)
    (Printf.sprintf "dominant class %s is a known class" cls)
    true
    (List.mem cls
       [ "exec"; "claim"; "steal"; "backoff"; "merge"; "gc"; "interp" ]);
  Alcotest.(check bool)
    (Printf.sprintf "dominant share %.3f in (0, 1]" share)
    true
    (share > 0.0 && share <= 1.0 +. 1e-6)

(* The causal what-if table. Shrinking durations can only shorten a
   schedule whose joins take maxima, so every virtual speedup is >= 1
   and non-decreasing in the shrink percentage. *)
let whatif () =
  let tr = traced_run (Lazy.force md5) in
  let p = Critpath.analyze tr in
  let rows = Critpath.whatif p in
  Alcotest.(check bool) "what-if has targets" true (rows <> []);
  List.iter
    (fun (r : Critpath.whatif_row) ->
      if String.equal r.Critpath.wf_target "barrier" then
        Alcotest.fail "barrier slack offered as a what-if target";
      List.iter
        (fun (k, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s @%d%%: speedup %.4f >= 1" r.Critpath.wf_target
               k s)
            true
            (s >= 1.0 -. 1e-9))
        r.Critpath.wf_speedups;
      let rec mono = function
        | (k1, s1) :: ((k2, s2) :: _ as rest) ->
          if k1 <= k2 && s1 > s2 +. 1e-9 then
            Alcotest.failf "%s: speedup fell from %.4f@%d%% to %.4f@%d%%"
              r.Critpath.wf_target s1 k1 s2 k2;
          mono rest
        | _ -> ()
      in
      mono r.Critpath.wf_speedups)
    rows;
  (* the class the profiler blames must be addressable: the acceptance
     question "what should I shrink to get my wall clock back?" needs
     the dominant class in the table *)
  let cls, _ = Critpath.dominant p in
  Alcotest.(check bool)
    (Printf.sprintf "dominant class %s is a what-if target" cls)
    true
    (List.exists (fun r -> String.equal r.Critpath.wf_target cls) rows)

let () =
  Alcotest.run "critpath"
    [
      ( "determinism",
        [
          Alcotest.test_case "base artifact byte-identical" `Slow
            deterministic;
        ] );
      ("structure", [ Alcotest.test_case "md5 @2" `Slow structure ]);
      ("whatif", [ Alcotest.test_case "causal table sane" `Slow whatif ]);
    ]
