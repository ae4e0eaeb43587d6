(* Tests for the per-domain event rings and the domtrace recorder:
   ring laws (FIFO order, capacity bound, drop-oldest accounting) via
   qcheck, merge determinism (byte-identical Chrome traces from a race-free
   schedule), and the scheduler-health analyzer — a seeded domain
   stall must flag its victim as the straggler, and fault-free runs of
   every workload must stay below the warning thresholds with balanced
   B/E trace events and zero ring drops. *)

module Ring = Domexec.Ring
module Domtrace = Domexec.Domtrace
module SR = Domexec.Domtrace.Sched_report

(* --- ring laws (qcheck) ------------------------------------------- *)

let kinds =
  [|
    Ring.Run_begin; Ring.Run_end; Ring.Chunk_claim; Ring.Chunk_start;
    Ring.Chunk_finish; Ring.Steal_stolen; Ring.Steal_empty; Ring.Steal_lost;
    Ring.Retry; Ring.Backoff; Ring.Heartbeat; Ring.Poison; Ring.Gc_sample;
    Ring.Merge_begin; Ring.Merge_end;
  |]

let events_arb =
  QCheck.make ~print:(fun (cap, evs) ->
      Printf.sprintf "capacity=%d events=%d" cap (List.length evs))
    QCheck.Gen.(
      pair (int_range 1 70)
        (list_size (int_range 0 300)
           (triple (int_range 0 (Array.length kinds - 1)) small_nat small_nat)))

(* Everything the ring promises about a fill-then-read: power-of-two
   capacity at least the request, exact written/drops accounting, and
   kept events that are exactly the newest [min n cap] in emission
   order with every field intact. *)
let ring_laws =
  QCheck.Test.make ~count:300 ~name:"ring: FIFO, capacity bound, drop-oldest"
    events_arb
    (fun (cap_req, evs) ->
      let r = Ring.create ~capacity:cap_req () in
      let cap = Ring.capacity r in
      List.iteri
        (fun i (k, a, b) -> Ring.emit r kinds.(k) ~ts:i ~vt:(i * 2) ~a ~b ~c:(a + b) ())
        evs;
      let n = List.length evs in
      let kept = Ring.events r in
      let expect =
        List.filteri
          (fun i _ -> i >= n - min n cap)
          (List.mapi (fun i e -> (i, e)) evs)
      in
      cap >= cap_req
      && cap land (cap - 1) = 0
      && Ring.written r = n
      && Ring.drops r = max 0 (n - cap)
      && List.length kept = min n cap
      && List.for_all2
           (fun (i, (k, a, b)) (ev : Ring.event) ->
             ev.Ring.ev_ts = i
             && ev.ev_vt = i * 2
             && ev.ev_kind = kinds.(k)
             && ev.ev_a = a && ev.ev_b = b
             && ev.ev_c = a + b)
           expect kept
      && Ring.events r = kept)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ ring_laws ]

(* Forced overflow, deterministically: 100 events into a capacity-16
   ring keep exactly the newest 16 in emission order (fields intact,
   including the virtual timestamp), count the other 84 as drops, and
   leave the written total untouched. *)
let forced_overflow () =
  let r = Ring.create ~capacity:16 () in
  for i = 0 to 99 do
    Ring.emit r Ring.Heartbeat ~ts:i ~vt:(i * 3) ~a:i ~b:(i + 1) ~c:(i + 2) ()
  done;
  Alcotest.(check int) "capacity honored" 16 (Ring.capacity r);
  Alcotest.(check int) "written counts every emit" 100 (Ring.written r);
  Alcotest.(check int) "drops counted exactly" 84 (Ring.drops r);
  let kept = Ring.events r in
  Alcotest.(check int) "newest capacity-many kept" 16 (List.length kept);
  List.iteri
    (fun j (ev : Ring.event) ->
      Alcotest.(check int) "newest kept, in order" (84 + j) ev.Ring.ev_ts;
      Alcotest.(check int) "vt survives overflow" ((84 + j) * 3) ev.ev_vt;
      Alcotest.(check int) "payload survives overflow" (84 + j + 2) ev.ev_c)
    kept;
  Alcotest.(check int) "reading does not change drops" 84 (Ring.drops r)

(* --- traced executor runs ----------------------------------------- *)

let md5 = lazy (Harness.Bench_run.load (Workloads.Registry.find "md5"))

let traced_run ?gc ?capacity ?chunk (b : Harness.Bench_run.t) =
  let res = b.Harness.Bench_run.expanded in
  let tr = Domtrace.create ?gc ?capacity () in
  let r =
    Domexec.Exec.run ~domains:2 ~force:true ?chunk ~trace:tr
      res.Expand.Transform.transformed res.Expand.Transform.plan
      b.Harness.Bench_run.lids
  in
  Judge.domains (Lazy.force b.Harness.Bench_run.contract_oracle) res r;
  tr

(* Merge determinism: a single-chunk schedule is race-free (the only
   chunk is home-owned, a thief's one probe is refused by the
   steal-ahead predicate), so with GC sampling off two runs record the
   same event sequences and must export byte-identical traces. *)
let identical_traces () =
  let export () =
    let tr = traced_run ~gc:false ~chunk:1_000_000 (Lazy.force md5) in
    Telemetry.Chrome_trace.export (Domtrace.to_chrome tr)
  in
  let t1 = export () in
  let t2 = export () in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 200);
  Alcotest.(check string) "byte-identical across runs" t1 t2

(* Chrome B/E discipline of an exported trace: globally balanced and
   properly nested per (pid, tid) — an E never fires with no span
   open, and nothing is left open at the end. *)
let check_balance name (trace : string) =
  let j = Telemetry.Json.of_string_exn trace in
  let evs =
    match Telemetry.Json.member "traceEvents" j with
    | Some (Telemetry.Json.List l) -> l
    | _ -> Alcotest.failf "%s: no traceEvents array" name
  in
  let depth = Hashtbl.create 8 in
  let bcount = ref 0 in
  let ecount = ref 0 in
  List.iter
    (fun e ->
      let str k =
        match Telemetry.Json.member k e with
        | Some (Telemetry.Json.Str s) -> s
        | _ -> ""
      in
      let int k =
        match Telemetry.Json.member k e with
        | Some (Telemetry.Json.Int i) -> i
        | _ -> 0
      in
      let key = (int "pid", int "tid") in
      let d () = Option.value ~default:0 (Hashtbl.find_opt depth key) in
      match str "ph" with
      | "B" ->
        incr bcount;
        Hashtbl.replace depth key (d () + 1)
      | "E" ->
        incr ecount;
        if d () <= 0 then
          Alcotest.failf "%s: E with no open span on pid=%d tid=%d" name
            (fst key) (snd key);
        Hashtbl.replace depth key (d () - 1)
      | _ -> ())
    evs;
  Alcotest.(check int) (name ^ ": B/E balanced") !bcount !ecount;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then
        Alcotest.failf "%s: %d span(s) left open on pid=%d tid=%d" name d pid
          tid)
    depth

(* Fault-free health, one case per workload: valid balanced trace,
   zero drops at the default ring capacity, and no straggler or
   warning — the thresholds must not false-positive on an honest
   2-domain run. *)
let sweep_case (w : Workloads.Workload.t) =
  Alcotest.test_case w.Workloads.Workload.name `Slow (fun () ->
      let b = Harness.Bench_run.load w in
      let tr = traced_run b in
      let rep = SR.analyze tr in
      Alcotest.(check int)
        "zero drops at default capacity" 0 rep.SR.sr_drops;
      Alcotest.(check int)
        "analyzer sees every recorded event" (Domtrace.total_events tr)
        rep.SR.sr_events;
      (match rep.SR.sr_straggler with
      | None -> ()
      | Some d ->
        Alcotest.failf "fault-free run flagged domain %d (imbalance %.2f)" d
          rep.SR.sr_imbalance);
      Alcotest.(check (list string)) "no warnings" [] rep.SR.sr_warnings;
      check_balance w.Workloads.Workload.name
        (Telemetry.Chrome_trace.export (Domtrace.to_chrome tr)))

(* A deliberately tiny ring on a chunk-per-iteration schedule must
   overflow: drops are counted, surfaced in the report, and called out
   as a warning instead of silently truncating utilization. *)
let tiny_capacity () =
  let tr = traced_run ~capacity:16 ~chunk:1 (Lazy.force md5) in
  let rep = SR.analyze tr in
  Alcotest.(check bool) "drops counted" true (rep.SR.sr_drops > 0);
  let contains s sub =
    let n = String.length s in
    let m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "drop warning raised" true
    (List.exists (fun w -> contains w "dropped") rep.SR.sr_warnings);
  (* drop-oldest can evict a span's B while its E survives (and can
     sever claim/start/finish pairs); the exporter must still produce
     a well-formed, balanced Chrome trace from what remains *)
  check_balance "overflowed ring"
    (Telemetry.Chrome_trace.export (Domtrace.to_chrome tr))

(* --- gc accounting -------------------------------------------------- *)

(* gc_share regression: the report's share must be a genuine ratio of
   measured pause time to summed run time — the field used to be a
   dirty-pages-per-chunk proxy that pinned at 1.0 on every workload.
   An honest md5 run spends well under half its time in the collector,
   and the per-domain attribution must sum to the measured total. *)
let gc_share_sane () =
  let tr = traced_run (Lazy.force md5) in
  let rep = SR.analyze tr in
  Alcotest.(check bool)
    (Printf.sprintf "gc_share %.3f is a ratio, not the degenerate 1.0"
       rep.SR.sr_gc_share)
    true
    (rep.SR.sr_gc_share >= 0.0 && rep.SR.sr_gc_share < 0.9);
  let sum =
    Array.fold_left (fun a d -> a + d.SR.dr_gc_ns) 0 rep.SR.sr_domains
  in
  Alcotest.(check int) "per-domain gc_ns sums to the total" rep.SR.sr_gc_ns
    sum;
  Alcotest.(check bool) "gc_ns never negative" true (rep.SR.sr_gc_ns >= 0)

(* --- straggler identification under an injected stall -------------- *)

(* A seeded domain stall holds its chunk claim open until the watchdog
   aborts the attempt, so the victim accumulates ~watchdog_ms of claim
   time; the analyzer must name exactly the domain the supervisor's
   own stall event records. The window is sized so the stall dominates
   the imbalance ratio even on a loaded host: with two domains and two
   attempts the 1.5x threshold needs busy-per-attempt < watchdog/4,
   and md5's chunks run well under 750 ms each. *)
let straggler () =
  let b = Lazy.force md5 in
  let plan = b.Harness.Bench_run.expanded.Expand.Transform.plan in
  let tr = Domtrace.create () in
  let sup =
    Domexec.Supervisor.run ~domains:2 ~force:true ~watchdog_ms:3000
      ~fault:(Faultinject.Fault.make ~seed:1 (Faultinject.Fault.Domain_stall 1))
      ~trace:tr
      b.Harness.Bench_run.expanded.Expand.Transform.transformed plan
      b.Harness.Bench_run.lids
  in
  Alcotest.(check bool) "stall fired" true
    (sup.Domexec.Supervisor.sup_stalls > 0);
  let victim =
    List.find_map
      (fun (e : Guard.Diag.sup_event) ->
        if e.Guard.Diag.se_kind = "stall" then Some e.Guard.Diag.se_domain
        else None)
      sup.Domexec.Supervisor.sup_events
  in
  let rep = SR.analyze tr in
  (match (victim, rep.SR.sr_straggler) with
  | Some v, Some s ->
    Alcotest.(check int) "straggler is the stalled domain" v s
  | Some _, None ->
    Alcotest.fail "stall fired but the analyzer flagged no straggler"
  | None, _ -> Alcotest.fail "stall counted but no stall event recorded");
  Alcotest.(check bool) "straggler warning raised" true
    (rep.SR.sr_warnings <> []);
  Alcotest.(check bool) "failed attempt kept in the recording" true
    (rep.SR.sr_attempts >= 2);
  (* the stalled domain observed the abort pill while unwinding *)
  Alcotest.(check bool) "victim poisoned" true
    (match victim with
    | Some v -> rep.SR.sr_domains.(v).SR.dr_poisoned
    | None -> false)

(* --- time accounting under supervised retries ---------------------- *)

(* Backoff is slept between a chunk's claim and its start, so it is
   part of the claim gap. A crash/retry run must still account every
   domain's run time exactly once: busy + claim + steal + merge + idle
   = run wherever idle is not clamped at zero, and the backoff share
   never exceeds the claim time it sits in. *)
let crash_accounting () =
  let b = Lazy.force md5 in
  let plan = b.Harness.Bench_run.expanded.Expand.Transform.plan in
  let tr = Domtrace.create () in
  let sup =
    Domexec.Supervisor.run ~domains:2 ~force:true
      ~fault:
        (Faultinject.Fault.make ~seed:11 (Faultinject.Fault.Domain_crash 2))
      ~trace:tr
      b.Harness.Bench_run.expanded.Expand.Transform.transformed plan
      b.Harness.Bench_run.lids
  in
  Alcotest.(check bool) "crash retried" true
    (sup.Domexec.Supervisor.sup_retries > 0);
  let rep = SR.analyze tr in
  Alcotest.(check bool) "backoff recorded" true
    (Array.exists (fun d -> d.SR.dr_backoff_ns > 0) rep.SR.sr_domains);
  Array.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: backoff within claim" d.SR.dr_dom)
        true
        (d.SR.dr_backoff_ns <= d.SR.dr_claim_ns);
      if d.SR.dr_idle_ns > 0 then
        Alcotest.(check int)
          (Printf.sprintf "domain %d: busy+claim+steal+merge+idle = run"
             d.SR.dr_dom)
          d.SR.dr_run_ns
          (d.SR.dr_busy_ns + d.SR.dr_claim_ns + d.SR.dr_steal_ns
         + d.SR.dr_merge_ns + d.SR.dr_idle_ns))
    rep.SR.sr_domains

let () =
  Alcotest.run "domtrace"
    [
      ( "ring-laws",
        qcheck_cases
        @ [
            Alcotest.test_case "forced overflow keeps newest, counts drops"
              `Quick forced_overflow;
          ] );
      ( "chrome",
        [
          Alcotest.test_case "byte-identical under race-free schedule" `Slow
            identical_traces;
        ] );
      ("fault-free", List.map sweep_case Workloads.Registry.all);
      ( "capacity",
        [ Alcotest.test_case "tiny ring drops and warns" `Quick tiny_capacity ]
      );
      ( "gc",
        [
          Alcotest.test_case "gc_share is a measured ratio" `Slow
            gc_share_sane;
        ] );
      ( "straggler",
        [ Alcotest.test_case "domain-stall victim flagged" `Slow straggler ]
      );
      ( "accounting",
        [
          Alcotest.test_case "crash/retry run accounts run time once" `Slow
            crash_accounting;
        ] );
    ]
