(** Deterministic parallel-execution simulator.

    The transformed program is executed {e sequentially} in iteration
    order — which is semantically exact, because expansion guarantees
    each thread's private accesses land in its own copies and shared
    DOACROSS accesses are executed in iteration order, the order the
    paper's post/wait synchronization enforces. Timing is then derived
    by replaying the measured per-iteration costs against a thread
    schedule:

    - {b DOALL} loops use static chunking (the paper's choice): thread
      [t] runs iterations [t*ceil(M/T) .. (t+1)*ceil(M/T))].
    - {b DOACROSS} loops use dynamic self-scheduling with chunk size 1;
      each iteration's {e serial window} — the span between its first
      and last access that carries a cross-thread flow dependence —
      must begin after the previous iteration's serial window ends
      (post/wait), and the wait time is accounted as synchronization.

    Each simulated thread owns a private L1; all share an LLC, and LLC
    misses accumulate DRAM traffic that bounds the loop's finish time
    by a shared-bandwidth term. Cycle costs measured during execution
    already include these cache penalties, because the interpreter's
    access-cost hook is pointed at the cache of the iteration's
    assigned thread. *)

open Minic

type schedule = Doall | Doacross

type loop_spec = {
  lid : Ast.lid;
  schedule : schedule;
  ordered : (Ast.aid, int * bool) Hashtbl.t;
      (** accesses carrying cross-thread flow dependences:
          aid -> (synchronization channel, is-write). Channels are
          access classes merged along carried flow; each is an
          independent post/wait pair, so an early input cursor and a
          late output cursor pipeline instead of serializing whole
          iterations. *)
}

let spec_of_analysis (a : Privatize.Analyze.result) : loop_spec =
  let c = a.Privatize.Analyze.classification in
  let ordered = Hashtbl.create 16 in
  List.iter
    (fun (aid, chan, is_write) -> Hashtbl.replace ordered aid (chan, is_write))
    (Privatize.Classify.ordered_channels c);
  let lid =
    a.Privatize.Analyze.profile.Depgraph.Profiler.graph.Depgraph.Graph.loop
  in
  {
    lid;
    schedule =
      (match Privatize.Classify.parallelism_kind c with
      | `Doall -> Doall
      | `Doacross -> Doacross);
    ordered;
  }

(** Cache hierarchy parameters, loosely modelled on the paper's
    dual quad-core Opteron 8350. *)
type machine_params = {
  l1_bytes : int;
  l1_assoc : int;
  llc_bytes : int;
  llc_assoc : int;
  line_bytes : int;
  llc_extra : int;  (** extra cycles on L1 miss, LLC hit *)
  dram_extra : int;  (** extra cycles on LLC miss *)
  bw_bytes_per_cycle : float;  (** shared DRAM bandwidth *)
}

let default_machine =
  {
    l1_bytes = 32 * 1024;
    l1_assoc = 8;
    llc_bytes = 2 * 1024 * 1024;
    llc_assoc = 16;
    line_bytes = 64;
    llc_extra = 10;
    dram_extra = 80;
    (* calibrated to the interpreter's compute/memory cost ratio
       (which charges arithmetic about 4-8x more, relative to memory,
       than an out-of-order core): low enough that a streaming kernel
       like 470.lbm saturates beyond four threads, high enough that
       cache-resident workloads never feel it *)
    bw_bytes_per_cycle = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Sequential reference                                                *)
(* ------------------------------------------------------------------ *)

type seq_result = {
  sq_output : string;
  sq_exit : int;
  sq_total : int;
  sq_loop : (Ast.lid * int) list;  (** cycles inside each target loop *)
  sq_peak : int;
  sq_cache_stall : int;
      (** cache-penalty cycles charged inside the target loops *)
}

(* Simulated-time offset for trace spans: each measured run appends to
   one shared timeline so a multi-run session (original, expanded,
   parallel) exports as consecutive, non-overlapping trace regions.
   Advancing is deterministic (run order and cycle counts are), so the
   byte-identical-trace contract holds. *)
let trace_epoch = ref 0
let reset_trace_epoch () = trace_epoch := 0

let loop_span_name (lid : Ast.lid) = Printf.sprintf "loop %d" lid

(** Run a program sequentially under the cache model; the baseline for
    speedups. *)
let run_sequential ?(machine = default_machine) ?attach (prog : Ast.program)
    (lids : Ast.lid list) : seq_result =
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  let l1 =
    Cache.create ~size_bytes:machine.l1_bytes ~assoc:machine.l1_assoc
      ~line_bytes:machine.line_bytes
  in
  let llc =
    Cache.create ~size_bytes:machine.llc_bytes ~assoc:machine.llc_assoc
      ~line_bytes:machine.line_bytes
  in
  let in_loop = ref 0 in
  let cache_stall = ref 0 in
  st.Interp.Machine.access_extra <-
    Some
      (fun _kind addr size ->
        let extra =
          if Cache.access l1 ~addr ~size then 0
          else if Cache.access llc ~addr ~size then machine.llc_extra
          else machine.dram_extra
        in
        if !in_loop > 0 then cache_stall := !cache_stall + extra;
        extra);
  let base = !trace_epoch in
  let loop_cycles = Hashtbl.create 4 in
  let enter_at = Hashtbl.create 4 in
  st.Interp.Machine.loop_hook <-
    Some
      (fun lid ev _ ->
        if List.mem lid lids then
          match ev with
          | Interp.Machine.Enter ->
            incr in_loop;
            Telemetry.Span.sim_begin ~cat:"loop" ~tid:(-1)
              ~ts:(base + st.Interp.Machine.cycles)
              (loop_span_name lid);
            Hashtbl.replace enter_at lid st.Interp.Machine.cycles
          | Interp.Machine.Iter -> ()
          | Interp.Machine.Exit ->
            in_loop := max 0 (!in_loop - 1);
            Telemetry.Span.sim_end ~tid:(-1)
              ~ts:(base + st.Interp.Machine.cycles)
              (loop_span_name lid);
            let d =
              st.Interp.Machine.cycles - Hashtbl.find enter_at lid
            in
            Hashtbl.replace loop_cycles lid
              (d + Option.value ~default:0 (Hashtbl.find_opt loop_cycles lid)));
  (match attach with Some f -> f m | None -> ());
  let exit_code = Interp.Machine.run m in
  trace_epoch := base + st.Interp.Machine.cycles + 1;
  if Telemetry.Sink.enabled () then begin
    let count = Telemetry.Span.count in
    count "seq.l1_hits" (Cache.hits l1);
    count "seq.l1_misses" (Cache.misses l1);
    count "seq.llc_hits" (Cache.hits llc);
    count "seq.llc_misses" (Cache.misses llc);
    count "seq.cache_stall_cycles" !cache_stall;
    count "seq.loads" st.Interp.Machine.stats.Interp.Machine.n_loads;
    count "seq.stores" st.Interp.Machine.stats.Interp.Machine.n_stores;
    count "seq.allocs" (Interp.Memory.alloc_count st.Interp.Machine.mem);
    count "seq.total_cycles" st.Interp.Machine.cycles;
    Telemetry.Span.observe "seq.peak_bytes"
      (Interp.Memory.peak_bytes st.Interp.Machine.mem)
  end;
  {
    sq_output = Interp.Machine.output st;
    sq_exit = exit_code;
    sq_total = st.Interp.Machine.cycles;
    sq_loop =
      List.map
        (fun l -> (l, Option.value ~default:0 (Hashtbl.find_opt loop_cycles l)))
        lids;
    sq_peak = Interp.Memory.peak_bytes st.Interp.Machine.mem;
    sq_cache_stall = !cache_stall;
  }

(* ------------------------------------------------------------------ *)
(* Parallel simulation                                                 *)
(* ------------------------------------------------------------------ *)

(** SpiceC-style runtime-privatization surcharge (see
    {!Runtimepriv.Rp}): monitored accesses pay a resolution cost and
    privately-written bytes are committed at each iteration's end. *)
type runtime_priv = {
  rp_monitored : (Ast.aid, unit) Hashtbl.t;
  rp_resolve_cost : int;
  rp_commit_per_byte : int;
}

type par_result = {
  pr_threads : int;
  pr_output : string;
  pr_exit : int;
  pr_total : int;  (** simulated whole-program time *)
  pr_loop : (Ast.lid * int) list;  (** simulated parallel loop times *)
  pr_busy : int array;  (** per-thread work cycles inside target loops *)
  pr_sync : int array;  (** per-thread DOACROSS wait cycles *)
  pr_idle : int array;  (** per-thread barrier/load-imbalance idle *)
  pr_overhead : int;  (** GOMP fork/dispatch/barrier cycles *)
  pr_peak : int;
  pr_iterations : (Ast.lid * int) list;
  pr_rp_touched_bytes : int;
      (** bytes of heap data touched by monitored private accesses;
          the runtime-privatization baseline allocates one copy per
          extra thread of exactly this *)
  pr_dram_bytes : int;  (** DRAM traffic inside the target loops *)
  pr_cache_stall : int;
      (** cache-penalty cycles charged inside the target loops *)
  pr_heat : Heat.t option;
      (** cache-line heatmap, when a [heatmap] classifier was given *)
}

(* The simulator only needs the expansion runtime globals' names, so
   it does not depend on the expand library. *)
module Names = struct
  let tid = "__tid"
  let nthreads = "__nthreads"
end

(* Count iterations per (lid, invocation) with a cheap run; needed up
   front for static DOALL chunking. Control flow cannot depend on the
   thread id (private data never crosses iterations), so counts match
   the measured run. *)
let count_iterations (prog : Ast.program) (threads : int)
    (lids : Ast.lid list) : (Ast.lid * int, int) Hashtbl.t =
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  Interp.Machine.set_global_int st Names.nthreads threads;
  let counts = Hashtbl.create 8 in
  let inv = Hashtbl.create 8 in
  st.Interp.Machine.loop_hook <-
    Some
      (fun lid ev i ->
        if List.mem lid lids then
          match ev with
          | Interp.Machine.Enter ->
            Hashtbl.replace inv lid
              (1 + Option.value ~default:(-1) (Hashtbl.find_opt inv lid))
          | Interp.Machine.Iter ->
            Hashtbl.replace counts (lid, Hashtbl.find inv lid) i
          | Interp.Machine.Exit -> ());
  ignore (Interp.Machine.run m);
  counts

type thread_ctx = {
  mutable free_at : int;  (** simulated time the thread becomes free *)
  mutable busy : int;
  mutable sync : int;
  l1 : Cache.t;
  llc_slice : Cache.t;
      (** the thread's share of the last-level cache: an analytic
          approximation of shared-LLC contention — aggregate working
          sets larger than the LLC degrade with thread count, the
          effect behind dijkstra's and mpeg2-decoder's plateaus *)
}

type active_loop = {
  spec : loop_spec;
  trace_base : int;  (** simulated-timeline offset of this invocation *)
  mutable invocation : int;
  mutable seg_start : int;  (** st.cycles at current iteration start *)
  mutable cur_thread : int;
  mutable cur_iter : int;
  chan_first : (int, int) Hashtbl.t;
      (** per channel: offset of the first ordered access this iteration *)
  chan_last_access : (int, int) Hashtbl.t;
      (** per channel: offset of the last ordered access this
          iteration; the iteration posts the channel there (a write
          must also wait for the previous iteration's reads — the
          cross-thread anti-dependences) *)
  chan_prev_end : (int, int) Hashtbl.t;
      (** per channel: absolute time the previous iteration posted *)
  mutable enter_cycles : int;  (** st.cycles at loop entry *)
  mutable dram_bytes : int;
  mutable have_iter : bool;
}

(** Simulate a parallel run of [prog] (an expanded program reading
    [__tid]/[__nthreads]) on [threads] threads.

    [heatmap], when given, maps each access id to its access class;
    accesses inside the target loops are then attributed to the
    running thread's L1 lines (private accesses to copy [tid], the
    rest to copy 0) and the result carries a {!Heat.t}. *)
let run_parallel ?(machine = default_machine) ?rp ?heatmap ?attach
    (prog : Ast.program) (specs : loop_spec list) ~(threads : int) : par_result
    =
  let lids = List.map (fun s -> s.lid) specs in
  let counts = count_iterations prog threads lids in
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  Interp.Machine.set_global_int st Names.nthreads threads;
  let tctx =
    Array.init threads (fun _ ->
        {
          free_at = 0;
          busy = 0;
          sync = 0;
          l1 =
            Cache.create ~size_bytes:machine.l1_bytes ~assoc:machine.l1_assoc
              ~line_bytes:machine.line_bytes;
          llc_slice =
            Cache.create
              ~size_bytes:(max (machine.llc_bytes / threads) (16 * 1024))
              ~assoc:machine.llc_assoc ~line_bytes:machine.line_bytes;
        })
  in
  let active : active_loop option ref = ref None in
  let loop_sim = Hashtbl.create 4 in
  let loop_measured = Hashtbl.create 4 in
  let iter_count = Hashtbl.create 4 in
  let overhead = ref 0 in
  let idle = Array.make threads 0 in
  let cum_busy = Array.make threads 0 in
  let cum_sync = Array.make threads 0 in
  let cur_cache_thread = ref 0 in
  let cache_stall = ref 0 in
  let stall_events = ref 0 in
  let rp_resolves = ref 0 in
  let rp_commit_total = ref 0 in
  let cursor = ref !trace_epoch in
  st.Interp.Machine.access_extra <-
    Some
      (fun _kind addr size ->
        let t = tctx.(!cur_cache_thread) in
        let extra =
          if Cache.access t.l1 ~addr ~size then 0
          else if Cache.access t.llc_slice ~addr ~size then machine.llc_extra
          else begin
            (match !active with
            | Some al -> al.dram_bytes <- al.dram_bytes + machine.line_bytes
            | None -> ());
            machine.dram_extra
          end
        in
        if Option.is_some !active then cache_stall := !cache_stall + extra;
        extra);
  (* observer tracks the serial window of the running iteration and,
     for the runtime-privatization baseline, charges the access-control
     library on monitored accesses *)
  let iter_commit_bytes = ref 0 in
  let total_dram = ref 0 in
  let rp_touched : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  st.Interp.Machine.observer <-
    Some
      (fun aid kind addr size ->
        (* heatmap attribution: inside a target loop, charge the lines
           of this access to the thread running the iteration (copy =
           tid for private accesses, copy 0 for everything else) *)
        (match (heatmap, !active) with
        | Some classify_aid, Some _ ->
          let t = !cur_cache_thread in
          let cls = classify_aid aid in
          let copy = match cls with Cache.Private -> t | _ -> 0 in
          Cache.attribute
            tctx.(t).l1
            { Cache.at_thread = t; at_class = cls; at_copy = copy }
            ~addr ~size
        | _ -> ());
        (match rp with
        | Some rp when Hashtbl.mem rp.rp_monitored aid ->
          st.Interp.Machine.cycles <-
            st.Interp.Machine.cycles + rp.rp_resolve_cost;
          (* 8-byte granules bound the touched-set accounting *)
          Hashtbl.replace rp_touched (addr lsr 3) ();
          incr rp_resolves;
          if kind = Visit.Store then begin
            iter_commit_bytes := !iter_commit_bytes + size;
            rp_commit_total := !rp_commit_total + size
          end
        | _ -> ());
        match !active with
        | Some al -> (
          match Hashtbl.find_opt al.spec.ordered aid with
          | Some (chan, is_write) ->
            let off = st.Interp.Machine.cycles - al.seg_start in
            ignore is_write;
            if not (Hashtbl.mem al.chan_first chan) then
              Hashtbl.replace al.chan_first chan off;
            Hashtbl.replace al.chan_last_access chan off
          | None -> ())
        | None -> ());
  let invocations = Hashtbl.create 4 in
  let finalize_iteration (al : active_loop) =
    if al.have_iter then begin
      let t = tctx.(al.cur_thread) in
      let commit =
        match rp with
        | Some rp -> !iter_commit_bytes * rp.rp_commit_per_byte
        | None -> 0
      in
      iter_commit_bytes := 0;
      let d = st.Interp.Machine.cycles - al.seg_start + commit in
      let dispatch =
        match al.spec.schedule with
        | Doacross -> Interp.Cost.gomp_dispatch
        | Doall -> 0
      in
      overhead := !overhead + dispatch;
      let start = t.free_at + dispatch in
      (* per-channel post/wait: each channel's first use must follow
         the previous iteration's last write to it; waits on distinct
         channels accumulate in first-use order *)
      let wait =
        if al.spec.schedule = Doacross then begin
          let chans =
            Hashtbl.fold (fun c off acc -> (off, c) :: acc) al.chan_first []
            |> List.sort compare
          in
          List.fold_left
            (fun delay (off, c) ->
              match Hashtbl.find_opt al.chan_prev_end c with
              | Some prev_end ->
                let actual = start + delay + off in
                if actual < prev_end then delay + (prev_end - actual)
                else delay
              | None -> delay)
            0 chans
        end
        else 0
      in
      (* post: record when this iteration's last channel accesses
         complete *)
      Hashtbl.iter
        (fun c off ->
          Hashtbl.replace al.chan_prev_end c (start + wait + off + 1))
        al.chan_last_access;
      Hashtbl.reset al.chan_first;
      Hashtbl.reset al.chan_last_access;
      if wait > 0 then incr stall_events;
      if Telemetry.Sink.enabled () then begin
        (* per-thread trace slices on the invocation's simulated
           timeline: the post/wait stall, then the iteration body *)
        let tb = al.trace_base + Interp.Cost.gomp_fork in
        let tid = al.cur_thread in
        if wait > 0 then begin
          Telemetry.Span.sim_begin ~cat:"sync" ~tid ~ts:(tb + start) "wait";
          Telemetry.Span.sim_end ~tid ~ts:(tb + start + wait) "wait"
        end;
        let nm = Printf.sprintf "iter %d" al.cur_iter in
        Telemetry.Span.sim_begin ~cat:"iter" ~tid ~ts:(tb + start + wait) nm;
        Telemetry.Span.sim_end ~tid ~ts:(tb + start + wait + d) nm
      end;
      t.busy <- t.busy + d;
      t.sync <- t.sync + wait;
      t.free_at <- start + d + wait
    end
  in
  let assign_thread (al : active_loop) (i : int) : int =
    match al.spec.schedule with
    | Doall ->
      let mi =
        Option.value ~default:max_int
          (Hashtbl.find_opt counts (al.spec.lid, al.invocation))
      in
      let mi = max mi 1 in
      let chunk = (mi + threads - 1) / threads in
      min (i / chunk) (threads - 1)
    | Doacross ->
      (* dynamic self-scheduling: the earliest-free thread grabs it *)
      let best = ref 0 in
      for t = 1 to threads - 1 do
        if tctx.(t).free_at < tctx.(!best).free_at then best := t
      done;
      !best
  in
  st.Interp.Machine.loop_hook <-
    Some
      (fun lid ev i ->
        match List.find_opt (fun s -> s.lid = lid) specs with
        | None -> ()
        | Some spec -> (
          match ev with
          | Interp.Machine.Enter ->
            (match !active with
            | Some _ -> failwith "nested target loops are not supported"
            | None -> ());
            let invocation =
              let v =
                1 + Option.value ~default:(-1) (Hashtbl.find_opt invocations lid)
              in
              Hashtbl.replace invocations lid v;
              v
            in
            Array.iter
              (fun t ->
                t.free_at <- 0;
                t.busy <- 0;
                t.sync <- 0)
              tctx;
            Telemetry.Span.sim_begin ~cat:"loop" ~tid:(-1) ~ts:!cursor
              (loop_span_name lid);
            active :=
              Some
                {
                  spec;
                  trace_base = !cursor;
                  invocation;
                  seg_start = st.Interp.Machine.cycles;
                  cur_thread = 0;
                  cur_iter = 0;
                  chan_first = Hashtbl.create 8;
                  chan_last_access = Hashtbl.create 8;
                  chan_prev_end = Hashtbl.create 8;
                  enter_cycles = st.Interp.Machine.cycles;
                  dram_bytes = 0;
                  have_iter = false;
                }
          | Interp.Machine.Iter -> (
            match !active with
            | Some al when al.spec.lid = lid ->
              finalize_iteration al;
              let t = assign_thread al i in
              al.cur_thread <- t;
              al.cur_iter <- i;
              al.seg_start <- st.Interp.Machine.cycles;
              al.have_iter <- true;
              cur_cache_thread := t;
              Interp.Machine.set_global_int st Names.tid t
            | _ -> ())
          | Interp.Machine.Exit -> (
            match !active with
            | Some al when al.spec.lid = lid ->
              finalize_iteration al;
              cur_cache_thread := 0;
              Interp.Machine.set_global_int st Names.tid 0;
              (* makespan + shared bandwidth bound *)
              let work_span =
                Array.fold_left (fun acc t -> max acc t.free_at) 0 tctx
              in
              let bw_time =
                int_of_float
                  (float_of_int al.dram_bytes /. machine.bw_bytes_per_cycle)
              in
              let makespan = max work_span bw_time in
              let fork = Interp.Cost.gomp_fork
              and barrier = Interp.Cost.gomp_barrier in
              overhead := !overhead + fork + (barrier * threads);
              let sim_time = fork + makespan + barrier in
              if Telemetry.Sink.enabled () then begin
                Telemetry.Span.sim_end ~tid:(-1)
                  ~ts:(al.trace_base + sim_time)
                  (loop_span_name lid);
                Telemetry.Span.count
                  (Printf.sprintf "par.loop.%d.cycles" lid)
                  sim_time;
                Telemetry.Span.count
                  (Printf.sprintf "par.loop.%d.iterations" lid)
                  al.cur_iter;
                Telemetry.Span.count "par.dram_bound_cycles"
                  (max 0 (bw_time - work_span))
              end;
              cursor := al.trace_base + sim_time + 1;
              let bump tbl v =
                Hashtbl.replace tbl lid
                  (v + Option.value ~default:0 (Hashtbl.find_opt tbl lid))
              in
              total_dram := !total_dram + al.dram_bytes;
              bump loop_sim sim_time;
              bump loop_measured (st.Interp.Machine.cycles - al.enter_cycles);
              bump iter_count al.cur_iter;
              Array.iteri
                (fun i t ->
                  idle.(i) <- idle.(i) + (makespan - t.free_at);
                  cum_busy.(i) <- cum_busy.(i) + t.busy;
                  cum_sync.(i) <- cum_sync.(i) + t.sync)
                tctx;
              active := None
            | _ -> ())));
  (* guards and fault injectors chain onto the hooks installed above;
     the count_iterations pre-run is deliberately left unattached *)
  (match attach with Some f -> f m | None -> ());
  let exit_code = Interp.Machine.run m in
  trace_epoch := !cursor + 1;
  let measured_total = st.Interp.Machine.cycles in
  (* simulated total = measured total with each target loop's measured
     execution replaced by its simulated parallel time *)
  let sum tbl = Hashtbl.fold (fun _ d acc -> acc + d) tbl 0 in
  let heat =
    match heatmap with
    | Some _ ->
      Some
        (Heat.build ~line_bytes:machine.line_bytes
           (Array.map (fun t -> t.l1) tctx))
    | None -> None
  in
  (match heat with
  | Some h when Telemetry.Sink.enabled () ->
    Telemetry.Span.count "heat.lines_touched" h.Heat.total_lines;
    Telemetry.Span.count "heat.touches" h.Heat.total_touches;
    Telemetry.Span.count "heat.false_sharing_lines" h.Heat.false_sharing_lines
  | _ -> ());
  if Telemetry.Sink.enabled () then begin
    let count = Telemetry.Span.count in
    let sum_cache f = Array.fold_left (fun acc t -> acc + f t) 0 tctx in
    count "par.l1_hits" (sum_cache (fun t -> Cache.hits t.l1));
    count "par.l1_misses" (sum_cache (fun t -> Cache.misses t.l1));
    count "par.llc_hits" (sum_cache (fun t -> Cache.hits t.llc_slice));
    count "par.llc_misses" (sum_cache (fun t -> Cache.misses t.llc_slice));
    count "par.cache_stall_cycles" !cache_stall;
    count "par.sync_wait_cycles" (Array.fold_left ( + ) 0 cum_sync);
    count "par.post_wait_stalls" !stall_events;
    count "par.idle_cycles" (Array.fold_left ( + ) 0 idle);
    count "par.gomp_overhead_cycles" !overhead;
    count "par.dram_bytes" !total_dram;
    count "par.rp_resolved_accesses" !rp_resolves;
    count "par.rp_commit_bytes" !rp_commit_total;
    count "par.loads" st.Interp.Machine.stats.Interp.Machine.n_loads;
    count "par.stores" st.Interp.Machine.stats.Interp.Machine.n_stores;
    count "par.allocs" (Interp.Memory.alloc_count st.Interp.Machine.mem);
    count "par.total_cycles" (measured_total - sum loop_measured + sum loop_sim);
    Telemetry.Span.observe "par.peak_bytes"
      (Interp.Memory.peak_bytes st.Interp.Machine.mem)
  end;
  {
    pr_threads = threads;
    pr_output = Interp.Machine.output st;
    pr_exit = exit_code;
    pr_total = measured_total - sum loop_measured + sum loop_sim;
    pr_loop =
      List.map
        (fun l ->
          (l, Option.value ~default:0 (Hashtbl.find_opt loop_sim l)))
        lids;
    pr_busy = cum_busy;
    pr_sync = cum_sync;
    pr_idle = idle;
    pr_overhead = !overhead;
    pr_peak = Interp.Memory.peak_bytes st.Interp.Machine.mem;
    pr_rp_touched_bytes = 8 * Hashtbl.length rp_touched;
    pr_dram_bytes = !total_dram;
    pr_cache_stall = !cache_stall;
    pr_heat = heat;
    pr_iterations =
      List.map
        (fun l ->
          (l, Option.value ~default:0 (Hashtbl.find_opt iter_count l)))
        lids;
  }
