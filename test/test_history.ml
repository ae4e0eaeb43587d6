(* Tests for the persistent bench-history analyzer: JSONL round-trip
   through the append/load pair, a fault-free (jittery but in-band)
   trend reads stable, a synthetically injected regression is flagged
   with its changepoint, improvements are not punished, and
   informational metrics are tracked but never gated. The pinned
   cases run the gate `bench --compare` runs: a one-entry baseline
   followed by the current entry, and the committed baseline itself. *)

module H = Harness.History

let entry ~t metrics =
  {
    H.h_time = t;
    h_rev = Printf.sprintf "rev%d" (int_of_float t);
    h_domains = 2;
    h_config = "fast";
    h_metrics = metrics;
  }

(* One metric per entry, so a whole series can be written as a list. *)
let series key values =
  List.mapi (fun i v -> entry ~t:(float_of_int i) [ (key, v) ]) values

let roundtrip () =
  let e =
    entry ~t:7.0
      [ ("md5/cycles/seq_total", 123456.0); ("md5/wall@2/speedup", 1.5) ]
  in
  let e' =
    H.entry_of_json
      (Telemetry.Json.of_string_exn
         (Telemetry.Json.to_string (H.entry_to_json e)))
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "metrics survive" e.H.h_metrics e'.H.h_metrics;
  Alcotest.(check string) "rev survives" e.H.h_rev e'.H.h_rev;
  Alcotest.(check int) "domains survive" e.H.h_domains e'.H.h_domains

let append_load () =
  let file = Filename.temp_file "dsexpand_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Sys.remove file;
      Alcotest.(check (list (list (pair string (float 1e-9)))))
        "missing file is an empty history" []
        (List.map (fun e -> e.H.h_metrics) (H.load ~file));
      let es = series "md5/cycles/seq_total" [ 10.0; 11.0; 12.0 ] in
      List.iter (H.append ~file) es;
      let got = H.load ~file in
      Alcotest.(check int) "all entries load" 3 (List.length got);
      Alcotest.(check (list (float 1e-9)))
        "order preserved, oldest first"
        [ 10.0; 11.0; 12.0 ]
        (List.map (fun e -> snd (List.hd e.H.h_metrics)) got))

let tolerance_mapping () =
  Alcotest.(check (option (pair (float 1e-9) bool)))
    "cycle counts gate exactly, larger worse"
    (Some (0.0, true))
    (H.default_tolerance "md5/cycles/seq_total");
  Alcotest.(check (option (pair (float 1e-9) bool)))
    "speedups gate loose, smaller worse"
    (Some (0.25, false))
    (H.default_tolerance "md5/wall@2/speedup");
  Alcotest.(check (option (pair (float 1e-9) bool)))
    "everything else informational" None
    (H.default_tolerance "md5/critpath@2/model")

let verdict_of key values =
  match H.analyze (series key values) with
  | [ s ] -> s
  | ss -> Alcotest.failf "expected one series, got %d" (List.length ss)

(* A fault-free trend: deterministic cycles flat, wall speedup with
   realistic host jitter well inside the 25% band. Nothing may flag. *)
let stable_trend () =
  let cyc =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1000.; 1000. ]
  in
  Alcotest.(check bool) "flat cycles stable" true (cyc.H.s_verdict = H.Stable);
  Alcotest.(check (option int)) "no changepoint" None cyc.H.s_changepoint;
  let wall =
    verdict_of "md5/wall@2/speedup" [ 1.50; 1.42; 1.57; 1.48; 1.53; 1.45 ]
  in
  Alcotest.(check bool) "jittery speedup stable" true
    (wall.H.s_verdict = H.Stable);
  Alcotest.(check int) "nothing regressed" 0 (H.regressions [ cyc; wall ])

(* Synthetically injected regressions: a cycle-count jump and a
   speedup collapse beyond the 25% band must both be flagged, and the
   changepoint must name the run that jumped. *)
let injected_regression () =
  let cyc =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1000.; 1300. ]
  in
  Alcotest.(check bool) "cycle jump flagged" true
    (cyc.H.s_verdict = H.Regressed);
  Alcotest.(check (option int)) "changepoint is the jump" (Some 5)
    cyc.H.s_changepoint;
  let wall =
    verdict_of "md5/wall@2/speedup" [ 1.50; 1.48; 1.52; 1.50; 1.49; 0.90 ]
  in
  Alcotest.(check bool) "speedup collapse flagged" true
    (wall.H.s_verdict = H.Regressed);
  Alcotest.(check int) "both counted" 2 (H.regressions [ cyc; wall ]);
  (* a transient spike that recovered: the latest run is healthy, so
     the verdict is stable, but the changepoint still marks the spike *)
  let spike =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1400.; 1000.; 1000.; 1000.; 1000.; 1000. ]
  in
  Alcotest.(check bool) "recovered spike reads stable" true
    (spike.H.s_verdict = H.Stable);
  Alcotest.(check (option int)) "spike run identified" (Some 4)
    spike.H.s_changepoint

(* Cycle counts are deterministic: one extra cycle is a regression,
   one fewer an improvement. *)
let one_cycle () =
  let up =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1000.; 1001. ]
  in
  Alcotest.(check bool) "+1 cycle regressed" true
    (up.H.s_verdict = H.Regressed);
  Alcotest.(check (option int)) "changepoint is the +1" (Some 5)
    up.H.s_changepoint;
  let down =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1000.; 999. ]
  in
  Alcotest.(check bool) "-1 cycle improved" true
    (down.H.s_verdict = H.Improved)

(* Getting faster is not a regression. *)
let improvement () =
  let cyc =
    verdict_of "md5/cycles/seq_total"
      [ 1000.; 1000.; 1000.; 1000.; 1000.; 800. ]
  in
  Alcotest.(check bool) "cycle drop is an improvement" true
    (cyc.H.s_verdict = H.Improved);
  Alcotest.(check int) "not counted as regression" 0 (H.regressions [ cyc ])

(* Ungated keys are tracked but never flagged, however wild. *)
let informational () =
  let s = verdict_of "md5/critpath@2/model" [ 2.0; 0.1; 9.0; 0.5; 4.0; 0.2 ] in
  Alcotest.(check bool) "wild informational series stays stable" true
    (s.H.s_verdict = H.Stable);
  Alcotest.(check int) "never regresses" 0 (H.regressions [ s ])

(* The rendered report carries the verdict words the CI log greps. *)
let rendering () =
  let entries =
    series "md5/cycles/seq_total" [ 1000.; 1000.; 1000.; 1000.; 1000.; 1300. ]
  in
  let out = H.render entries (H.analyze entries) in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "regression named" true (contains "REGRESSED");
  Alcotest.(check bool) "run count shown" true (contains "6 run(s)")

(* The comparison `bench --compare` makes: the pinned baseline entry,
   then this run's entry. *)
let pinned base current =
  H.against ~pinned:[ entry ~t:0.0 base ] (entry ~t:1.0 current)

let verdict_in ss key =
  match List.find_opt (fun s -> s.H.s_key = key) ss with
  | Some s -> s.H.s_verdict
  | None -> Alcotest.failf "%s not reported" key

let pinned_cycles () =
  let key = "md5/cycles/seq_total" in
  let v x = verdict_in (pinned [ (key, 7487554.) ] [ (key, x) ]) key in
  Alcotest.(check bool) "equal cycles stable" true (v 7487554. = H.Stable);
  Alcotest.(check bool) "+1 cycle regressed" true (v 7487555. = H.Regressed);
  Alcotest.(check bool) "-1 cycle improved" true (v 7487553. = H.Improved)

(* 30% below the baseline: outside the 25% band (the old compare's 35%
   band let this pass). *)
let pinned_wall () =
  let key = "md5/wall@2/speedup" and base = 0.917934983579 in
  let ss = pinned [ (key, base) ] [ (key, base *. 0.7) ] in
  Alcotest.(check bool) "30% slower regressed" true
    (verdict_in ss key = H.Regressed);
  Alcotest.(check int) "counted" 1 (H.regressions ss)

let pinned_key_sets () =
  let ss =
    pinned
      [ ("md5/cycles/seq_total", 1000.); ("lbm/cycles/seq_total", 5000.) ]
      [ ("md5/cycles/seq_total", 1000.); ("md5/cycles/new_key", 9.) ]
  in
  Alcotest.(check (list string))
    "only the current entry's keys"
    [ "md5/cycles/seq_total"; "md5/cycles/new_key" ]
    (List.map (fun s -> s.H.s_key) ss);
  Alcotest.(check bool) "gated key absent from baseline is n/a" true
    (verdict_in ss "md5/cycles/new_key" = H.Insufficient);
  Alcotest.(check int) "and not counted" 0 (H.regressions ss)

(* The committed baseline: one pinned entry with the 80 values of the
   8 workloads (8 cycle keys and 2 wall speedups each). Readable from
   the test directory (dune runtest) or the repository root. *)
let baseline_file =
  if Sys.file_exists "bench/BASELINE.json" then "bench/BASELINE.json"
  else "../bench/BASELINE.json"

let committed_baseline () =
  match H.load ~file:baseline_file with
  | [ e ] ->
    Alcotest.(check int) "80 metrics" 80 (List.length e.H.h_metrics);
    Alcotest.(check string) "rev" "5132a62" e.H.h_rev;
    Alcotest.(check int) "domains" 1 e.H.h_domains;
    Alcotest.(check string) "config" "full" e.H.h_config;
    let value key = List.assoc key e.H.h_metrics in
    Alcotest.(check (float 0.0))
      "md5 seq_total" 7487554.0
      (value "md5/cycles/seq_total");
    Alcotest.(check (float 0.0))
      "470.lbm par_total@8" 44609085.0
      (value "470.lbm/cycles/par_total@8")
  | es -> Alcotest.failf "expected one pinned entry, got %d" (List.length es)

let () =
  Alcotest.run "history"
    [
      ( "jsonl",
        [
          Alcotest.test_case "entry round-trip" `Quick roundtrip;
          Alcotest.test_case "append/load" `Quick append_load;
        ] );
      ( "tolerance",
        [ Alcotest.test_case "key-naming semantics" `Quick tolerance_mapping ]
      );
      ( "trend",
        [
          Alcotest.test_case "fault-free stable" `Quick stable_trend;
          Alcotest.test_case "injected regression flagged" `Quick
            injected_regression;
          Alcotest.test_case "one extra cycle regresses" `Quick one_cycle;
          Alcotest.test_case "improvement not punished" `Quick improvement;
          Alcotest.test_case "informational never gated" `Quick informational;
          Alcotest.test_case "report wording" `Quick rendering;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "cycles exact against the baseline" `Quick
            pinned_cycles;
          Alcotest.test_case "wall 30% below regresses" `Quick pinned_wall;
          Alcotest.test_case "current keys only" `Quick pinned_key_sets;
          Alcotest.test_case "committed baseline loads" `Quick
            committed_baseline;
        ] );
    ]
