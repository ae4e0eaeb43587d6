(* Tests for the telemetry subsystem: the JSON writer, the Chrome
   trace exporter (valid JSON, balanced B/E, byte-identical under
   repeated deterministic runs), the aggregator's merge laws
   (associative / commutative / neutral, via qcheck), and a golden
   metrics table on md5. *)

open Minic

(* --- a minimal JSON parser, enough to validate exporter output ----- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c" c));
    advance ()
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          advance ();
          advance ();
          advance ();
          advance ();
          Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise (Bad "number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then begin
            advance ();
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            List.rev ((k, v) :: acc)
          end
        in
        Obj (members [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then begin
            advance ();
            elements (v :: acc)
          end
          else begin
            expect ']';
            List.rev (v :: acc)
          end
        in
        Arr (elements [])
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

let field name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let str_field name j =
  match field name j with Some (Str s) -> Some s | _ -> None

(* --- running md5 under a fresh telemetry session ------------------- *)

(* One full deterministic pipeline run (parse, analyze, expand,
   sequential + 4-thread parallel simulation) with a fresh trace
   collector and aggregator; the timeline is rewound so repeated calls
   are bit-for-bit repeatable. *)
let run_md5_session () :
    string * Telemetry.Counters.snapshot * Report.Tables.metrics_row =
  let chrome = Telemetry.Chrome_trace.create () in
  let agg = Telemetry.Counters.create () in
  Parexec.Sim.reset_trace_epoch ();
  let seq, pr =
    Telemetry.Sink.with_sink
      (Telemetry.Sink.tee
         [ Telemetry.Counters.sink agg; Telemetry.Chrome_trace.sink chrome ])
      (fun () ->
        let w = Workloads.Registry.find "md5" in
        let prog =
          Telemetry.Span.wall "phase.parse" (fun () ->
              Typecheck.parse_and_check ~file:w.Workloads.Workload.name
                w.Workloads.Workload.source)
        in
        let lids = prog.Ast.parallel_loops in
        let analyses = List.map (Privatize.Analyze.analyze prog) lids in
        let res = Expand.Transform.expand_loops prog analyses in
        let specs = List.map Parexec.Sim.spec_of_analysis analyses in
        let seq = Parexec.Sim.run_sequential prog lids in
        let pr =
          Parexec.Sim.run_parallel res.Expand.Transform.transformed specs
            ~threads:4
        in
        (seq, pr))
  in
  let row =
    {
      Report.Tables.m_workload = "md5";
      m_threads = 4;
      m_loop_speedup =
        (let lsum l = List.fold_left (fun a (_, c) -> a + c) 0 l in
         float_of_int (lsum seq.Parexec.Sim.sq_loop)
         /. float_of_int (lsum pr.Parexec.Sim.pr_loop));
      m_total_speedup =
        float_of_int seq.Parexec.Sim.sq_total
        /. float_of_int pr.Parexec.Sim.pr_total;
      m_breakdown = Harness.Bench_run.breakdown_of ~seq ~par:pr;
    }
  in
  (Telemetry.Chrome_trace.export chrome, Telemetry.Counters.snapshot agg, row)

let md5_session = lazy (run_md5_session ())

(* --- chrome exporter ----------------------------------------------- *)

let events_of_export export =
  match field "traceEvents" (parse_json export) with
  | Some (Arr evs) -> evs
  | _ -> Alcotest.fail "no traceEvents array"

let chrome_tests =
  [
    Alcotest.test_case "md5 trace is valid JSON with the expected tracks"
      `Quick (fun () ->
        let export, _, _ = Lazy.force md5_session in
        let evs = events_of_export export in
        Alcotest.(check bool) "has events" true (List.length evs > 10);
        let pids =
          List.filter_map
            (fun e ->
              match field "pid" e with Some (Num p) -> Some p | _ -> None)
            evs
          |> List.sort_uniq compare
        in
        (* toolchain, simulator loop track, and the four sim threads *)
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf "pid %g present" p)
              true (List.mem p pids))
          [ 1.; 10.; 100.; 101.; 102.; 103. ];
        let names =
          List.filter_map (fun e -> str_field "name" e) evs
          |> List.sort_uniq compare
        in
        List.iter
          (fun nm ->
            Alcotest.(check bool) (nm ^ " span present") true
              (List.mem nm names))
          [
            "process_name"; "phase.parse"; "phase.profile"; "phase.classify";
            "phase.plan"; "phase.expand"; "loop 7"; "iter 0";
          ]);
    Alcotest.test_case "B and E events balance, globally and per pid" `Quick
      (fun () ->
        let export, _, _ = Lazy.force md5_session in
        let evs = events_of_export export in
        let tally ph pid =
          List.length
            (List.filter
               (fun e ->
                 str_field "ph" e = Some ph
                 &&
                 match pid with
                 | None -> true
                 | Some p -> field "pid" e = Some (Num p))
               evs)
        in
        Alcotest.(check int) "global balance" (tally "B" None) (tally "E" None);
        List.iter
          (fun p ->
            Alcotest.(check int)
              (Printf.sprintf "pid %g balance" p)
              (tally "B" (Some p))
              (tally "E" (Some p)))
          [ 1.; 10.; 100.; 101.; 102.; 103. ]);
    Alcotest.test_case "abandoned spans are auto-closed at export" `Quick
      (fun () ->
        let chrome = Telemetry.Chrome_trace.create () in
        Telemetry.Sink.with_sink (Telemetry.Chrome_trace.sink chrome)
          (fun () ->
            Telemetry.Span.sim_begin ~tid:0 ~ts:5 "outer";
            Telemetry.Span.sim_begin ~tid:0 ~ts:6 "inner";
            Telemetry.Span.sim_end ~tid:0 ~ts:9 "inner"
            (* "outer" never ends: aborted by an exception *));
        let evs = events_of_export (Telemetry.Chrome_trace.export chrome) in
        let count ph =
          List.length (List.filter (fun e -> str_field "ph" e = Some ph) evs)
        in
        Alcotest.(check int) "balanced anyway" (count "B") (count "E"));
    Alcotest.test_case "wall timestamps are logical ticks, not host time"
      `Quick (fun () ->
        let chrome = Telemetry.Chrome_trace.create () in
        Telemetry.Sink.with_sink (Telemetry.Chrome_trace.sink chrome)
          (fun () -> Telemetry.Span.wall "phase.test" (fun () -> ()));
        let evs = events_of_export (Telemetry.Chrome_trace.export chrome) in
        let ts =
          List.filter_map
            (fun e ->
              if str_field "name" e = Some "phase.test" then
                match field "ts" e with Some (Num t) -> Some t | _ -> None
              else None)
            evs
        in
        Alcotest.(check (list (float 0.0))) "tick line" [ 1.0; 2.0 ] ts);
    Alcotest.test_case "repeated runs export byte-identical traces" `Quick
      (fun () ->
        let export1, snap1, _ = run_md5_session () in
        let export2, snap2, _ = run_md5_session () in
        Alcotest.(check string) "traces identical" export1 export2;
        Alcotest.(check bool)
          "counter snapshots identical" true
          (snap1.Telemetry.Counters.counters
          = snap2.Telemetry.Counters.counters));
  ]

(* --- aggregator: merge laws via qcheck ----------------------------- *)

let snapshot_gen : Telemetry.Counters.snapshot QCheck.Gen.t =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  (* canonical: sorted, unique keys *)
  let canonical kvs =
    List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) kvs
  in
  let counters = map canonical (small_list (pair key small_signed_int)) in
  let hist =
    let* c = int_range 1 20 in
    let* lo = small_signed_int in
    let* hi = map (fun d -> lo + d) small_nat in
    let+ sum = small_signed_int in
    {
      Telemetry.Counters.h_count = c;
      h_sum = sum;
      h_min = lo;
      h_max = hi;
    }
  in
  let span =
    let* c = int_range 1 20 in
    let+ total = small_nat in
    { Telemetry.Counters.s_count = c; s_total = total }
  in
  let* counters = counters in
  let* histograms = map canonical (small_list (pair key hist)) in
  let+ spans = map canonical (small_list (pair key span)) in
  { Telemetry.Counters.counters; histograms; spans }

let snapshot_arb = QCheck.make snapshot_gen

let merge_law_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"merge is commutative"
        (QCheck.pair snapshot_arb snapshot_arb) (fun (a, b) ->
          Telemetry.Counters.merge a b = Telemetry.Counters.merge b a);
      QCheck.Test.make ~count:200 ~name:"merge is associative"
        (QCheck.triple snapshot_arb snapshot_arb snapshot_arb)
        (fun (a, b, c) ->
          Telemetry.Counters.(merge (merge a b) c = merge a (merge b c)));
      QCheck.Test.make ~count:200 ~name:"empty is the neutral element"
        snapshot_arb (fun s ->
          Telemetry.Counters.(merge s empty = s && merge empty s = s));
    ]

let aggregator_tests =
  [
    Alcotest.test_case "spans aggregate into wall/sim-keyed totals" `Quick
      (fun () ->
        let agg = Telemetry.Counters.create () in
        Telemetry.Sink.with_sink (Telemetry.Counters.sink agg) (fun () ->
            Telemetry.Span.sim_begin ~tid:2 ~ts:100 "loop 1";
            Telemetry.Span.sim_end ~tid:2 ~ts:160 "loop 1";
            Telemetry.Span.sim_begin ~tid:2 ~ts:200 "loop 1";
            Telemetry.Span.sim_end ~tid:2 ~ts:230 "loop 1";
            Telemetry.Span.count "x" 3;
            Telemetry.Span.count "x" 4);
        let snap = Telemetry.Counters.snapshot agg in
        Alcotest.(check (list (pair string int)))
          "counters"
          [ ("x", 7) ]
          snap.Telemetry.Counters.counters;
        match snap.Telemetry.Counters.spans with
        | [ ("sim:loop 1", s) ] ->
          Alcotest.(check int) "count" 2 s.Telemetry.Counters.s_count;
          Alcotest.(check int) "total" 90 s.Telemetry.Counters.s_total
        | other ->
          Alcotest.failf "unexpected spans: %d entries" (List.length other));
    Alcotest.test_case "disabled telemetry emits nothing" `Quick (fun () ->
        Alcotest.(check bool) "off by default" false (Telemetry.Sink.enabled ());
        (* must be a plain call-through, not an error *)
        Alcotest.(check int) "wall passes through" 41
          (Telemetry.Span.wall "unobserved" (fun () -> 41));
        Telemetry.Span.count "unobserved" 5;
        Telemetry.Span.sim_begin ~tid:0 ~ts:0 "unobserved");
  ]

(* --- golden metrics table on md5 ----------------------------------- *)

let golden_md5_metrics =
  String.concat "\n"
    [
      "workload  threads  loop speedup  total speedup  compute  \
       cache stall  sync wait  privatization  idle  runtime";
      "--------  -------  ------------  -------------  -------  \
       -----------  ---------  -------------  ----  -------";
      "md5             4          3.93           3.38    98.5%  \
      \       0.2%       0.0%           1.2%  0.0%     0.1%";
      "";
    ]

let metrics_tests =
  [
    Alcotest.test_case "golden metrics table on md5" `Quick (fun () ->
        let _, _, row = Lazy.force md5_session in
        Alcotest.(check string)
          "table" golden_md5_metrics
          (Report.Tables.metrics_table [ row ]));
    Alcotest.test_case "metrics_table appends a harmonic-mean row" `Quick
      (fun () ->
        let _, _, row = Lazy.force md5_session in
        let t = Report.Tables.metrics_table [ row; row ] in
        Alcotest.(check bool) "summary row" true
          (List.exists
             (fun l ->
               String.length l >= 13 && String.sub l 0 13 = "harmonic mean")
             (String.split_on_char '\n' t)));
    Alcotest.test_case "metrics JSON parses and carries the counters" `Quick
      (fun () ->
        let _, snap, _ = Lazy.force md5_session in
        let j = parse_json (Telemetry.Metrics.to_string snap) in
        match field "counters" j with
        | Some (Obj kvs) ->
          Alcotest.(check bool) "expand.privatized present" true
            (List.mem_assoc "expand.privatized" kvs)
        | _ -> Alcotest.fail "no counters object");
  ]

(* --- json writer --------------------------------------------------- *)

let json_tests =
  [
    Alcotest.test_case "escaping and number forms round-trip" `Quick
      (fun () ->
        let j =
          Telemetry.Json.(
            Obj
              [
                ("s", Str "a\"b\\c\nd");
                ("i", Int (-42));
                ("f", Float 1.5);
                ("whole", Float 3.0);
                ("nan", Float nan);
                ("l", List [ Bool true; Null ]);
              ])
        in
        let s = Telemetry.Json.to_string j in
        match parse_json s with
        | Obj kvs ->
          Alcotest.(check (option string))
            "string" (Some "a\"b\\c\nd")
            (match List.assoc "s" kvs with Str s -> Some s | _ -> None);
          Alcotest.(check bool) "int" true (List.assoc "i" kvs = Num (-42.));
          Alcotest.(check bool) "float" true (List.assoc "f" kvs = Num 1.5);
          Alcotest.(check bool) "whole float keeps a point" true
            (List.assoc "whole" kvs = Num 3.0);
          Alcotest.(check bool) "nan becomes null" true
            (List.assoc "nan" kvs = Null)
        | _ -> Alcotest.fail "not an object");
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("json", json_tests);
      ("chrome-trace", chrome_tests);
      ("merge-laws", merge_law_tests);
      ("aggregator", aggregator_tests);
      ("metrics", metrics_tests);
    ]
