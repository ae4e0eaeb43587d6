(** See the interface. The recorder is a list of attempts, each a
    per-domain ring array; each ring is read once, through the segment
    pass, and the streams are cached on the attempt so the Chrome
    merge, the analyzer and the critical-path profiler all fold over
    the same recording. *)

type attempt = {
  at_rings : Ring.t array;
  mutable at_streams : Segments.stream array option;  (** cached *)
  mutable at_gc_ns : int;
      (** total GC/runtime pause time measured over the attempt, summed
          across every runtime domain (see {!Gcstat}) *)
}

type t = {
  dt_capacity : int;
  dt_gc : bool;
  mutable dt_attempts : attempt list;  (** newest first *)
  mutable dt_gc_base : int;
      (** {!Gcstat.total} snapshot taken at [begin_attempt] *)
}

(* Real GC pause time via [Runtime_events]: the runtime posts
   begin/end pairs for every GC phase into per-domain rings that a
   self cursor can drain after the fact. Two facts shape this module:

   - the ring ids the callbacks see are the runtime's internal domain
     {e slots}, which are recycled across [Domain.spawn] generations
     and therefore cannot be mapped back to our logical domain index
     (measured empirically: a second generation of workers reuses
     slots 1..n-1 while [Domain.self] keeps counting up). So we only
     ever account a process-wide total and let the analyzer attribute
     it to logical domains proportionally to their allocation volume
     ([Gc_sample] minor words), which the rings do record per domain;
   - [Runtime_events.start] and the cursor are process-global and
     irrevocable, so they live in module state shared by every
     recorder, with per-attempt deltas taken by snapshotting the
     running total. Recorders never run concurrently (the executor is
     invoked sequentially per process), so the shared total is safe. *)
module Gcstat = struct
  (* nesting depth and outermost-begin timestamp per runtime ring id:
     GC phases nest (a minor inside a major slice), and only the
     outermost span is wall time spent in the runtime *)
  let depth : (int, int * int64) Hashtbl.t = Hashtbl.create 8
  let total_ns = ref 0

  let runtime_begin ring ts _phase =
    let d, t0 = try Hashtbl.find depth ring with Not_found -> (0, 0L) in
    let t = Runtime_events.Timestamp.to_int64 ts in
    Hashtbl.replace depth ring (d + 1, if d = 0 then t else t0)

  let runtime_end ring ts _phase =
    match Hashtbl.find_opt depth ring with
    | None | Some (0, _) -> () (* begin lost to ring overflow: skip *)
    | Some (d, t0) ->
      let d = d - 1 in
      Hashtbl.replace depth ring (d, t0);
      if d = 0 then begin
        let t = Runtime_events.Timestamp.to_int64 ts in
        total_ns := !total_ns + max 0 (Int64.to_int (Int64.sub t t0))
      end

  (* started on first use; [None] when runtime events are unavailable *)
  let state =
    lazy
      (try
         Runtime_events.start ();
         Some
           ( Runtime_events.create_cursor None,
             Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () )
       with _ -> None)

  let ensure () = Option.is_some (Lazy.force state)

  let poll () =
    match Lazy.force state with
    | Some (cursor, cb) -> (
      try ignore (Runtime_events.read_poll cursor cb None) with _ -> ())
    | None -> ()

  let total () = !total_ns
end

let create ?(capacity = Ring.default_capacity) ?(gc = true) () =
  { dt_capacity = capacity; dt_gc = gc; dt_attempts = []; dt_gc_base = 0 }

let gc_sampling t = t.dt_gc

let begin_attempt t ~domains =
  let rings =
    Array.init domains (fun _ -> Ring.create ~capacity:t.dt_capacity ())
  in
  t.dt_attempts <-
    { at_rings = rings; at_streams = None; at_gc_ns = 0 } :: t.dt_attempts;
  if t.dt_gc && Gcstat.ensure () then begin
    (* flush pauses that predate the attempt into the running total *)
    Gcstat.poll ();
    t.dt_gc_base <- Gcstat.total ()
  end;
  rings

let end_attempt t =
  match t.dt_attempts with
  | [] -> ()
  | a :: _ ->
    if t.dt_gc && Gcstat.ensure () then begin
      Gcstat.poll ();
      let now = Gcstat.total () in
      a.at_gc_ns <- a.at_gc_ns + max 0 (now - t.dt_gc_base);
      t.dt_gc_base <- now
    end

let attempt_count t = List.length t.dt_attempts

(* A ring only drops when full, so a domain that dropped [n] events kept
   exactly [capacity]: replaying [n] copies of its oldest kept event
   first makes the ring drop exactly the copies. *)
let of_recording ~capacity attempts =
  let t = create ~capacity ~gc:false () in
  List.iter
    (fun (gc_ns, doms) ->
      let rings = begin_attempt t ~domains:(Array.length doms) in
      let emit d (e : Ring.event) =
        Ring.emit rings.(d) e.Ring.ev_kind ~ts:e.ev_ts ~vt:e.ev_vt ~a:e.ev_a
          ~b:e.ev_b ~c:e.ev_c ()
      in
      Array.iteri
        (fun d (drops, events) ->
          List.iter (emit d) (List.init drops (fun _ -> List.hd events));
          List.iter (emit d) events)
        doms;
      (List.hd t.dt_attempts).at_gc_ns <- gc_ns)
    attempts;
  t

let segments t =
  List.rev_map
    (fun a ->
      match a.at_streams with
      | Some s -> s
      | None ->
        let s = Array.map Segments.of_ring a.at_rings in
        a.at_streams <- Some s;
        s)
    t.dt_attempts

let total_events t = Segments.sum (fun st -> st.st_written) (segments t)
let total_drops t = Segments.sum (fun st -> st.st_drops) (segments t)

(* ------------------------------------------------------------------ *)
(* Chrome merge                                                        *)
(* ------------------------------------------------------------------ *)

(* Each domain replays onto its own logical tick line: an event's tick
   is its index in the domain's streams, counted across attempts, so
   the exported timestamps depend only on the event sequence. Claim,
   chunk and merge segments become spans inside the attempt's span,
   point events instants; a segment ends where the next begins, so B/E
   pairs nest and balance by construction. Items are listed attempt
   span first, segments in order, attempt end last, then sorted stably
   by tick: at a boundary the closing span's E precedes the next B. *)
let to_chrome ?(into = Telemetry.Chrome_trace.create ()) t =
  let emit = (Telemetry.Chrome_trace.sink into).Telemetry.Sink.emit in
  let streams = segments t in
  let base = Array.make (Segments.domains streams) 0 in
  List.iter
    (Array.iteri (fun d (st : Segments.stream) ->
         let tid = Telemetry.Chrome_trace.domain_tid_base + d in
         let clock = Telemetry.Event.Sim in
         let at tick f = (tick, f (base.(d) + tick)) in
         let b name tick =
           at tick (fun ts ->
               Telemetry.Event.Span_begin
                 { name; cat = "domexec"; clock; tid; ts })
         in
         let e name tick =
           at tick (fun ts -> Telemetry.Event.Span_end { name; clock; tid; ts })
         in
         let instant name tick =
           at tick (fun ts ->
               Telemetry.Event.Instant { name; cat = "sched"; clock; tid; ts })
         in
         let span (s : Segments.seg) name =
           [ b name s.s_tick0; e name s.s_tick1 ]
         in
         let opening, closing =
           match st.st_attempt with
           | Some (a, t0, t1) ->
             let name = Printf.sprintf "attempt-%d" a in
             ([ b name t0 ], [ e name (Option.value t1 ~default:st.st_events) ])
           | None -> ([], [])
         in
         List.stable_sort
           (fun (x, _) (y, _) -> compare x y)
           (opening
           @ List.concat_map
               (fun (s : Segments.seg) ->
                 match s.s_cls with
                 | Claim ->
                   span s (Printf.sprintf "claim L%d#%d" s.s_lid s.s_chunk)
                 | Exec ->
                   span s (Printf.sprintf "chunk L%d#%d" s.s_lid s.s_chunk)
                 | Merge -> span s (Printf.sprintf "merge L%d" s.s_lid)
                 | Interp | Barrier -> [])
               st.st_segs
           @ List.map
               (fun (tick, k) -> instant (Ring.kind_name k) tick)
               st.st_points
           @ closing)
         |> List.iter (fun (_, ev) -> emit ev);
         base.(d) <- base.(d) + st.st_events))
    streams;
  into

(* ------------------------------------------------------------------ *)
(* Scheduler-health analyzer                                           *)
(* ------------------------------------------------------------------ *)

module Sched_report = struct
  type dom_row = {
    dr_dom : int;
    dr_run_ns : int;
    dr_busy_ns : int;
    dr_claim_ns : int;
    dr_steal_ns : int;
    dr_backoff_ns : int;
    dr_merge_ns : int;
    dr_idle_ns : int;
    dr_chunks : int;
    dr_stolen : int;
    dr_steal_empty : int;
    dr_steal_lost : int;
    dr_retries : int;
    dr_poisoned : bool;
    dr_gc_minor : int;
    dr_gc_major : int;
    dr_gc_minor_words : int;
    dr_gc_dirty_chunks : int;
    dr_gc_ns : int;
    dr_drops : int;
  }

  type report = {
    sr_domains : dom_row array;
    sr_attempts : int;
    sr_capacity : int;
    sr_events : int;
    sr_drops : int;
    sr_steal_attempts : int;
    sr_steal_success : float option;
    sr_imbalance : float;
    sr_straggler : int option;
    sr_gc_ns : int;
    sr_gc_share : float;
    sr_warnings : string list;
  }

  let warn_ratio = 1.5
  let warn_floor_ns = 50_000_000

  let utilization (r : dom_row) =
    if r.dr_run_ns <= 0 then 0.0
    else float_of_int r.dr_busy_ns /. float_of_int r.dr_run_ns

  (* One row per domain, summed over attempts in order. Intervals still
     open at a stream's end (a stalled claim, a run that never reached
     Run_end) close at the domain's last event, which is what makes an
     injected stall's claim gap measurable: the poison observation that
     unwinds the domain is its last event. *)
  let row streams d =
    let sts =
      List.filter_map
        (fun s -> if d < Array.length s then Some s.(d) else None)
        streams
    in
    let sum f =
      List.fold_left (fun n (st : Segments.stream) -> n + f st) 0 sts
    in
    let seg_ns cls =
      sum (fun st ->
          List.fold_left
            (fun n (s : Segments.seg) ->
              if s.s_cls = cls then n + s.s_ns else n)
            0 st.st_segs)
    in
    let run = sum (fun st -> st.st_run_ns) in
    let steal = sum (fun st -> st.st_steal_ns) in
    let busy = seg_ns Exec and claim = seg_ns Claim and merge = seg_ns Merge in
    {
      dr_dom = d;
      dr_run_ns = run;
      dr_busy_ns = busy;
      dr_claim_ns = claim;
      dr_steal_ns = steal;
      dr_backoff_ns = sum (fun st -> st.st_backoff_ns);
      dr_merge_ns = merge;
      (* backoff is slept inside the claim gap: already in claim *)
      dr_idle_ns = max 0 (run - (busy + claim + steal + merge));
      dr_chunks = sum (fun st -> st.st_chunks);
      dr_stolen = sum (fun st -> st.st_stolen);
      dr_steal_empty = sum (fun st -> st.st_steal_empty);
      dr_steal_lost = sum (fun st -> st.st_steal_lost);
      dr_retries = sum (fun st -> st.st_retries);
      dr_poisoned =
        List.exists (fun (st : Segments.stream) -> st.st_poisoned) sts;
      dr_gc_minor = sum (fun st -> st.st_gc_minor);
      dr_gc_major = sum (fun st -> st.st_gc_major);
      dr_gc_minor_words = sum (fun st -> st.st_gc_words);
      dr_gc_dirty_chunks = sum (fun st -> st.st_gc_dirty);
      dr_gc_ns = 0;
      dr_drops = sum (fun st -> st.st_drops);
    }

  let analyze (t : t) : report =
    let streams = segments t in
    let rows = Array.init (Segments.domains streams) (row streams) in
    let n = Array.length rows in
    let sum f = Array.fold_left (fun s r -> s + f r) 0 rows in
    let runs = sum (fun r -> r.dr_run_ns) in
    (* Attribute the measured process-wide GC pause time (runtime
       events account every runtime domain, but under recycled ring
       ids — see {!Gcstat}) to logical domains in proportion to the
       minor words each one allocated; allocation volume is what
       drives the collector, and it is the one GC signal the rings
       record per logical domain. *)
    let gc_total = List.fold_left (fun s a -> s + a.at_gc_ns) 0 t.dt_attempts in
    let rows =
      let words = sum (fun r -> r.dr_gc_minor_words) in
      (* rounding remainder goes to the last row so the per-domain
         shares sum exactly to the measured total *)
      let booked = ref 0 in
      Array.mapi
        (fun i r ->
          let weight =
            if words > 0 then
              float_of_int r.dr_gc_minor_words /. float_of_int words
            else if runs > 0 then float_of_int r.dr_run_ns /. float_of_int runs
            else 1.0 /. float_of_int n
          in
          let share =
            if i = n - 1 then gc_total - !booked
            else int_of_float (float_of_int gc_total *. weight)
          in
          booked := !booked + share;
          { r with dr_gc_ns = share })
        rows
    in
    let work r = r.dr_busy_ns + r.dr_claim_ns in
    let mean_work =
      if n = 0 then 0.0 else float_of_int (sum work) /. float_of_int n
    in
    let max_work = Array.fold_left (fun m r -> max m (work r)) 0 rows in
    let imbalance =
      if mean_work <= 0.0 then 1.0 else float_of_int max_work /. mean_work
    in
    (* the candidate is the first domain doing the most work *)
    let straggler =
      match Array.find_opt (fun r -> work r = max_work) rows with
      | Some r
        when n > 1
             && imbalance > warn_ratio
             && float_of_int (work r) -. mean_work > float_of_int warn_floor_ns
        -> Some r.dr_dom
      | _ -> None
    in
    let steal_attempts =
      sum (fun r -> r.dr_stolen + r.dr_steal_empty + r.dr_steal_lost)
    in
    (* GC share of total domain time, from measured pause time. The
       old definition — the fraction of chunk boundaries whose
       quick_stat delta showed any collection — saturated at 1.0 on
       every real workload (any chunk big enough to be worth
       distributing allocates through several minor heaps), which is
       why every BENCH report pinned gc_share at exactly 1.0. *)
    let gc_share =
      if runs <= 0 then 0.0
      else min 1.0 (float_of_int gc_total /. float_of_int runs)
    in
    let drops = total_drops t in
    let warnings =
      List.filter_map Fun.id
        [
          Option.map
            (fun d ->
              Printf.sprintf
                "domain %d is a straggler: %.2fx the mean busy+claim time" d
                imbalance)
            straggler;
          (if drops = 0 then None
           else
             Some
               (Printf.sprintf
                  "%d ring event(s) dropped (capacity %d); utilization \
                   numbers undercount — raise the ring capacity"
                  drops t.dt_capacity));
        ]
    in
    {
      sr_domains = rows;
      sr_attempts = attempt_count t;
      sr_capacity = t.dt_capacity;
      sr_events = total_events t;
      sr_drops = drops;
      sr_steal_attempts = steal_attempts;
      sr_steal_success =
        (if steal_attempts = 0 then None
         else
           Some
             (float_of_int (sum (fun r -> r.dr_stolen))
             /. float_of_int steal_attempts));
      sr_imbalance = imbalance;
      sr_straggler = straggler;
      sr_gc_ns = gc_total;
      sr_gc_share = gc_share;
      sr_warnings = warnings;
    }

  let to_json ?(extra = []) (r : report) : Telemetry.Json.t =
    let module J = Telemetry.Json in
    let row (d : dom_row) =
      J.Obj
        [
          ("domain", J.Int d.dr_dom);
          ("run_ns", J.Int d.dr_run_ns);
          ("busy_ns", J.Int d.dr_busy_ns);
          ("claim_ns", J.Int d.dr_claim_ns);
          ("steal_ns", J.Int d.dr_steal_ns);
          ("backoff_ns", J.Int d.dr_backoff_ns);
          ("merge_ns", J.Int d.dr_merge_ns);
          ("idle_ns", J.Int d.dr_idle_ns);
          ("utilization", J.Float (utilization d));
          ("chunks", J.Int d.dr_chunks);
          ("stolen", J.Int d.dr_stolen);
          ("steal_empty", J.Int d.dr_steal_empty);
          ("steal_lost", J.Int d.dr_steal_lost);
          ("retries", J.Int d.dr_retries);
          ("poisoned", J.Bool d.dr_poisoned);
          ("gc_minor", J.Int d.dr_gc_minor);
          ("gc_major", J.Int d.dr_gc_major);
          ("gc_minor_words", J.Int d.dr_gc_minor_words);
          ("gc_dirty_chunks", J.Int d.dr_gc_dirty_chunks);
          ("gc_ns", J.Int d.dr_gc_ns);
          ("drops", J.Int d.dr_drops);
        ]
    in
    J.Obj
      (("schema", J.Str "dsexpand-domtrace/1")
       :: extra
      @ [
          ("attempts", J.Int r.sr_attempts);
          ("ring_capacity", J.Int r.sr_capacity);
          ("events", J.Int r.sr_events);
          ("drops", J.Int r.sr_drops);
          ("steal_attempts", J.Int r.sr_steal_attempts);
          ( "steal_success",
            match r.sr_steal_success with
            | Some s -> J.Float s
            | None -> J.Null );
          ("imbalance", J.Float r.sr_imbalance);
          ( "straggler",
            match r.sr_straggler with Some d -> J.Int d | None -> J.Null );
          ("gc_ns", J.Int r.sr_gc_ns);
          ("gc_share", J.Float r.sr_gc_share);
          ("warnings", J.List (List.map (fun w -> J.Str w) r.sr_warnings));
          ("domains", J.List (Array.to_list (Array.map row r.sr_domains)));
        ])

  let to_table (r : report) : string =
    let b = Buffer.create 1024 in
    let ms ns = float_of_int ns /. 1e6 in
    Buffer.add_string b
      (Printf.sprintf "%-6s %9s %9s %9s %9s %9s %9s %9s %5s %6s %6s %6s %6s %5s\n"
         "dom" "run-ms" "busy-ms" "claim-ms" "steal-ms" "bkoff-ms" "merge-ms"
         "idle-ms" "util" "chunks" "stolen" "empty" "gc-min" "drops");
    Array.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf
             "%-6d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %4.0f%% %6d %6d \
              %6d %6d %5d%s\n"
             d.dr_dom (ms d.dr_run_ns) (ms d.dr_busy_ns) (ms d.dr_claim_ns)
             (ms d.dr_steal_ns) (ms d.dr_backoff_ns) (ms d.dr_merge_ns)
             (ms d.dr_idle_ns)
             (100.0 *. utilization d)
             d.dr_chunks d.dr_stolen d.dr_steal_empty d.dr_gc_minor d.dr_drops
             (if d.dr_poisoned then "  [poisoned]" else "")))
      r.sr_domains;
    Buffer.add_string b
      (Printf.sprintf
         "attempts=%d events=%d drops=%d steal-attempts=%d steal-success=%s \
          imbalance=%.2f straggler=%s gc-ms=%.2f gc-share=%.2f\n"
         r.sr_attempts r.sr_events r.sr_drops r.sr_steal_attempts
         (match r.sr_steal_success with
         | Some s -> Printf.sprintf "%.2f" s
         | None -> "n/a")
         r.sr_imbalance
         (match r.sr_straggler with
         | Some d -> Printf.sprintf "domain-%d" d
         | None -> "none")
         (float_of_int r.sr_gc_ns /. 1e6)
         r.sr_gc_share);
    List.iter
      (fun w -> Buffer.add_string b (Printf.sprintf "warning: %s\n" w))
      r.sr_warnings;
    Buffer.contents b
end
