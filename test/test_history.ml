(* Tests for the persistent bench-history analyzer: JSONL round-trip
   through the append/load pair, a fault-free (jittery but in-band)
   trend reads stable, a synthetically injected regression is flagged
   with its changepoint, improvements are not punished, and
   informational metrics are tracked but never gated. *)

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
    ]
