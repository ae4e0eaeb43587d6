(** perfbench: the repository benchmark, one process per run.

    A fixed pool of four MiniC programs goes through the pipeline's
    public functions in one of three workloads:

    - [compile]: parse and type-check, profile and classify every
      parallel loop, expand (alias analysis, plan, transform, span
      optimization) and pretty-print, as [dsexpand -w/-i] does by
      default;
    - [execute]: run the original program on the sequential
      interpreter, then the expanded program on 2 domains under the
      supervisor with its default retry and watchdog, as
      [dsexpand --exec domains --domains 2] does;
    - [simulate]: the simulated evaluation behind the paper's tables:
      the sequential original, the expanded program at 2, 4 and 8
      simulated threads, and the runtime-privatization baseline at 4.

    A round runs the workload's operation once per pool program, in an
    order drawn from the seed; the seed changes nothing else. Every
    timing is the median of the run's round times. The reported ones
    ([setup_s], [round_cpu_s]) are process CPU times, which leave out
    the time a shared host gives its processors to other guests; the
    wall times are printed beside them. Every result is
    checked against the committed expected output and against the
    program's sequential oracle; a raised exception, a mismatch or a
    supervisor outcome other than [Completed] fails the operation.

    With [--trace 1] the run also wraps each public call in an
    in-memory span, derives the per-layer metrics from the spans and
    writes the spans to [.perfbench/spans-<workload>-<seed>.json]. *)

open Minic

let domains = 2
let sim_threads = [ 2; 4; 8 ]

(** The thread count of [sim_cycles] and the runtime-privatization
    baseline. *)
let sim_threads_reported = 4

(** Set-ups per run: at least [min_setups], and more until they have
    taken [min_setup_s] of CPU time; [setup_s] is the median of their
    CPU times. *)
let min_setups = 3

let min_setup_s = 2.

let expected_exit = 0
let now = Unix.gettimeofday

(** Minor words allocated so far by all domains. [Gc.quick_stat] counts
    the calling domain's words only up to its last minor collection, so
    one is forced first; no other domain runs between operations. *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let process_start = now ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(** Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
      (try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> find ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* The program pool                                                    *)
(* ------------------------------------------------------------------ *)

type program = { name : string; source : string; expected : string }

(** md5 is the smallest Table-4 program and the one every baseline
    number is quoted on; spans is the paper's Figure-3 ambiguous
    allocation; multi and rows are the benchmark's own (see their
    header comments). *)
let pool_sources =
  [
    ("md5", fun () -> (Workloads.Registry.find "md5").Workloads.Workload.source);
    ("spans", fun () -> read_file "examples/programs/spans.c");
    ("multi", fun () -> read_file "perfbench/programs/multi.c");
    ("rows", fun () -> read_file "perfbench/programs/rows.c");
  ]

let program_names = List.map fst pool_sources

let load_pool ~expected_dir : program list =
  List.map
    (fun (name, source) ->
      {
        name;
        source = source ();
        expected = read_file (Filename.concat expected_dir (name ^ ".out"));
      })
    pool_sources

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : string;  (** "<workload>/<round>/<program>" *)
  sp_parent : int;  (** -1 at the top of an operation *)
  sp_start : float;
  mutable sp_end : float;
  mutable sp_counts : (string * float) list;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span_id = ref 0
let current_op = ref ""

(** [f ()] inside a span named [name] when tracing; [counts] reads
    counts off the call's result. Every span also counts the minor
    words the calling domain allocated during it; collecting to count
    other domains too would change when the supervisor's watchdog
    thread gets to run. *)
let span ?(counts = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.sp_id | [] -> -1 in
    let w0 = Gc.minor_words () in
    incr next_span_id;
    let s =
      {
        sp_id = !next_span_id;
        sp_name = name;
        sp_op = !current_op;
        sp_parent = parent;
        sp_start = now ();
        sp_end = 0.;
        sp_counts = [];
      }
    in
    open_spans := s :: !open_spans;
    let close () =
      s.sp_end <- now ();
      open_spans := List.tl !open_spans;
      s.sp_counts <- [ ("mwords", (Gc.minor_words () -. w0) /. 1e6) ];
      spans := s :: !spans
    in
    match f () with
    | v ->
      close ();
      s.sp_counts <- counts v @ s.sp_counts;
      v
    | exception e ->
      close ();
      raise e
  end

let count name v = (name, float_of_int v)

(** CPU seconds (user and system) of all the process's threads since
    it started. Unlike wall time it leaves out the time a virtual
    machine's host gives its processors to other guests, which on a
    shared host drifts by tens of percent within minutes. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** One timed part of an operation: wall seconds, CPU seconds and minor
    words of all domains. When tracing, its span's words are these. *)
type section = { sec_name : string; sec_s : float; sec_cpu : float; sec_words : float }

let section name f =
  let w0 = all_minor_words () in
  let c0 = cpu_now () in
  let t0 = now () in
  span name f;
  let t1 = now () in
  let c1 = cpu_now () in
  let words = all_minor_words () -. w0 in
  (match !spans with
  | s :: _ when !tracing -> s.sp_counts <- [ ("mwords", words /. 1e6) ]
  | _ -> ());
  { sec_name = name; sec_s = t1 -. t0; sec_cpu = c1 -. c0; sec_words = words }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type entry = {
  p : program;
  oracle : Guard.Contract.oracle;
  ready : ready option;  (** compiled at set-up: execute and simulate *)
}

and compiled = {
  prog : Ast.program;
  lids : Ast.lid list;
  analyses : Privatize.Analyze.result list;
  res : Expand.Transform.result;
  text : string;  (** the pretty-printed transformed program *)
}

and ready = {
  c : compiled;
  specs : Parexec.Sim.loop_spec list;
  rp : Parexec.Sim.runtime_priv;
}

let check (e : entry) what code out =
  let fail fmt = Printf.ksprintf failwith ("%s: %s " ^^ fmt) e.p.name what in
  if not (String.equal out e.p.expected) then fail "output differs from the expected output";
  if not (String.equal out e.oracle.Guard.Contract.o_output) then
    fail "output differs from the sequential oracle";
  if code <> expected_exit || code <> e.oracle.Guard.Contract.o_exit then
    fail "exit code %d, expected %d" code expected_exit

let check_exec (e : entry) (c : compiled) what (r : Domexec.Exec.result) =
  check e what r.Domexec.Exec.dx_exit r.Domexec.Exec.dx_output;
  Guard.Contract.check_finals e.oracle c.res.Expand.Transform.plan
    r.Domexec.Exec.dx_machine

(** Values that must repeat exactly: per (metric, program), the first
    one recorded; a later different value fails the operation. *)
let exact : (string * string, string) Hashtbl.t = Hashtbl.create 16

let record_exact metric (e : entry) v =
  match Hashtbl.find_opt exact (metric, e.p.name) with
  | None -> Hashtbl.add exact (metric, e.p.name) v
  | Some v0 when String.equal v0 v -> ()
  | Some _ -> failwith (Printf.sprintf "%s: %s changed between operations" e.p.name metric)

let exact_total metric =
  Hashtbl.fold
    (fun (m, _) v acc -> if m = metric then acc + int_of_string v else acc)
    exact 0

let ready (e : entry) =
  match e.ready with Some r -> r | None -> invalid_arg "entry not compiled"

(* ------------------------------------------------------------------ *)
(* The operations                                                      *)
(* ------------------------------------------------------------------ *)

(** [Privatize.Analyze.analyze]; when tracing, the same calls it makes,
    so that profiling and classification get spans of their own. *)
let analyze prog lid =
  if not !tracing then Privatize.Analyze.analyze prog lid
  else begin
    let loop_fun, loop_stmt = Option.get (Visit.find_loop_fun prog lid) in
    let profile =
      span "depgraph.profile"
        ~counts:(fun (pr : Depgraph.Profiler.profile) ->
          let st = pr.Depgraph.Profiler.stats in
          [
            count "runs" 1;
            count "accesses" (st.Interp.Machine.n_loads + st.Interp.Machine.n_stores);
          ])
        (fun () -> Depgraph.Profiler.profile prog lid)
    in
    span "privatize.classify"
      ~counts:(fun (a : Privatize.Analyze.result) ->
        let cl = a.Privatize.Analyze.classification in
        [
          count "classes" (List.length cl.Privatize.Classify.classes);
          count "private_classes"
            (List.length
               (List.filter
                  (fun (_, v, _) -> v = Privatize.Classify.Private)
                  cl.Privatize.Classify.classes));
        ])
      (fun () ->
        let graph = profile.Depgraph.Profiler.graph in
        let induction_vars = Privatize.Induction.find prog loop_stmt in
        let induction =
          Privatize.Induction.access_ids_of_vars graph.Depgraph.Graph.sites prog
            loop_stmt induction_vars
        in
        let classification = Privatize.Classify.classify ~induction graph in
        { Privatize.Analyze.profile; classification; induction_vars; loop_stmt; loop_fun })
  end

(** What [dsexpand -w/-i] does by default. *)
let compile (p : program) : compiled =
  let prog = span "minic.parse" (fun () -> Typecheck.parse_and_check ~file:p.name p.source) in
  let lids = prog.Ast.parallel_loops in
  let analyses = List.map (analyze prog) lids in
  let res =
    span "expand.expand_loops"
      ~counts:(fun (r : Expand.Transform.result) ->
        count "privatized" r.Expand.Transform.privatized
        ::
        (match r.Expand.Transform.opt_stats with
        | None -> []
        | Some st ->
          [
            count "dead_stores_removed" st.Optim.Spanopt.dead_stores_removed;
            count "loads_propagated" st.Optim.Spanopt.loads_propagated;
            count "self_assigns_removed" st.Optim.Spanopt.self_assigns_removed;
          ]))
      (fun () -> Expand.Transform.expand_loops prog analyses)
  in
  let text =
    span "minic.pretty" (fun () -> Pretty.program_to_string res.Expand.Transform.transformed)
  in
  { prog; lids; analyses; res; text }

let compile_op (e : entry) =
  let c = ref None in
  let s = section "op.compile" (fun () -> c := Some (compile e.p)) in
  let c = Option.get !c in
  (* Plan.make runs this analysis inside expand_loops; timing it
     separately is the only way to see it without changing the library.
     Outside the timed section. *)
  if !tracing then begin
    let copy = Expand.Plan.copy_program c.prog in
    span "alias.andersen" (fun () -> ignore (Alias.Andersen.analyze copy))
  end;
  let code, out = Interp.Machine.run_program c.res.Expand.Transform.transformed in
  check e "expanded program" code out;
  record_exact "code" e c.text;
  record_exact "code_bytes" e (string_of_int (String.length c.text));
  [ s ]

let supervised (c : compiled) =
  Domexec.Supervisor.run ~domains ~force:true c.res.Expand.Transform.transformed
    c.res.Expand.Transform.plan c.lids

let exec_counts (r : Domexec.Exec.result) =
  let decided d =
    List.length
      (List.filter (fun (l : Domexec.Exec.loop_report) -> d l.Domexec.Exec.lr_decision)
         r.Domexec.Exec.dx_loops)
  in
  [
    count "merges" r.Domexec.Exec.dx_merges;
    count "chunks" (Array.fold_left ( + ) 0 r.Domexec.Exec.dx_chunks_run);
    count "steals" r.Domexec.Exec.dx_steals;
    count "distributed_loops" (decided (fun d -> d = Domexec.Exec.Distributed));
    count "replicated_loops" (decided (fun d -> d <> Domexec.Exec.Distributed));
  ]

let execute_op (e : entry) =
  let r = ready e in
  let seq =
    section "op.seq" (fun () ->
        let m = span "interp.load" (fun () -> Interp.Machine.load r.c.prog) in
        let code =
          span "interp.run"
            ~counts:(fun _ -> [ count "cycles" m.Interp.Machine.st.Interp.Machine.cycles ])
            (fun () -> Interp.Machine.run m)
        in
        check e "sequential run" code (Interp.Machine.output m.Interp.Machine.st))
  in
  let dom =
    section "op.domains" (fun () ->
        let sup =
          span "domexec.supervise"
            ~counts:(fun (s : Domexec.Supervisor.t) ->
              match s.Domexec.Supervisor.sup_result with
              | Some x -> exec_counts x
              | None -> [])
            (fun () -> supervised r.c)
        in
        span "guard.check" (fun () ->
            match sup.Domexec.Supervisor.sup_result with
            | Some x when sup.Domexec.Supervisor.sup_outcome = Domexec.Supervisor.Completed ->
              check_exec e r.c "domain run" x
            | _ ->
              failwith
                (Printf.sprintf "%s: supervisor outcome %s" e.p.name
                   (Domexec.Supervisor.outcome_to_string sup.Domexec.Supervisor.sup_outcome))))
  in
  (* The unsupervised call inside Supervisor.run, timed on its own so
     the trace can split the supervisor's cost from the executor's.
     Outside the timed sections. *)
  if !tracing then begin
    let x =
      span "domexec.exec"
        ~counts:(fun (x : Domexec.Exec.result) ->
          [ ("window_ms", x.Domexec.Exec.dx_wall_ns /. 1e6) ])
        (fun () ->
          Domexec.Exec.run ~domains ~force:true r.c.res.Expand.Transform.transformed
            r.c.res.Expand.Transform.plan r.c.lids)
    in
    check_exec e r.c "unsupervised domain run" x
  end;
  [ seq; dom ]

let simulate_op (e : entry) =
  let r = ready e in
  let prog = r.c.res.Expand.Transform.transformed in
  let s =
    section "op.sim" (fun () ->
        let sq =
          span "parexec.seq" (fun () -> Parexec.Sim.run_sequential r.c.prog r.c.lids)
        in
        check e "simulated sequential run" sq.Parexec.Sim.sq_exit sq.Parexec.Sim.sq_output;
        List.iter
          (fun threads ->
            let pr =
              span "parexec.par"
                ~counts:(fun (pr : Parexec.Sim.par_result) ->
                  if threads <> sim_threads_reported then []
                  else
                    [
                      count "sim_cycles" pr.Parexec.Sim.pr_total;
                      count "cache_stall_cycles" pr.Parexec.Sim.pr_cache_stall;
                      count "dram_bytes" pr.Parexec.Sim.pr_dram_bytes;
                    ])
                (fun () -> Parexec.Sim.run_parallel prog r.specs ~threads)
            in
            check e
              (Printf.sprintf "simulated run at %d threads" threads)
              pr.Parexec.Sim.pr_exit pr.Parexec.Sim.pr_output;
            if threads = sim_threads_reported then
              record_exact "sim_cycles" e (string_of_int pr.Parexec.Sim.pr_total))
          sim_threads;
        let rp =
          span "runtimepriv.rp" (fun () ->
              Parexec.Sim.run_parallel ~rp:r.rp prog r.specs ~threads:sim_threads_reported)
        in
        check e "runtime-privatization run" rp.Parexec.Sim.pr_exit rp.Parexec.Sim.pr_output)
  in
  [ s ]

let op_of_workload = function
  | "compile" -> compile_op
  | "execute" -> execute_op
  | "simulate" -> simulate_op
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Set-up and rounds                                                   *)
(* ------------------------------------------------------------------ *)

(** Read the pool and build each program's oracle; with [compiled],
    also compile it as [compile] does and derive what the executors
    need. *)
let setup ~expected_dir ~compiled : entry list =
  List.map
    (fun (p : program) ->
      current_op := "setup/0/" ^ p.name;
      let c = if compiled then Some (compile p) else None in
      let prog =
        match c with
        | Some c -> c.prog
        | None -> span "minic.parse" (fun () -> Typecheck.parse_and_check ~file:p.name p.source)
      in
      let oracle = span "guard.oracle" (fun () -> Guard.Contract.oracle_of prog []) in
      let ready =
        Option.map
          (fun c ->
            {
              c;
              specs = List.map Parexec.Sim.spec_of_analysis c.analyses;
              rp = Runtimepriv.Rp.config_of c.prog c.analyses;
            })
          c
      in
      let e = { p; oracle; ready } in
      Option.iter (fun c -> record_exact "code_bytes" e (string_of_int (String.length c.text))) c;
      e)
    (load_pool ~expected_dir)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Run [f] as one attempted operation; an exception fails it. *)
let attempt f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | v -> Some v
  | exception ex ->
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then prerr_endline ("perfbench: failed: " ^ Printexc.to_string ex);
    None

(** One round: the workload's operation once per entry, in seeded
    order. Returns the timed sections of the operations that succeeded.
    Each operation starts from a collected heap, so neither its time nor
    the peak memory depends on the order. *)
let round ~rng ~workload ~index entries =
  List.concat_map
    (fun (e : entry) ->
      Gc.full_major ();
      current_op := Printf.sprintf "%s/%d/%s" workload index e.p.name;
      Option.value ~default:[] (attempt (fun () -> op_of_workload workload e)))
    (shuffle rng entries)

let round_time sections = sum (List.map (fun s -> s.sec_s) sections)
let round_cpu sections = sum (List.map (fun s -> s.sec_cpu) sections)

(** Median over the rounds of the sections named [name], summed per
    round: their wall time under [label ^ "_s"] and their CPU time under
    [label ^ "_cpu_s"]. *)
let section_medians rounds label name =
  let med field =
    median
      (List.map
         (fun sections ->
           sum (List.filter_map (fun s -> if s.sec_name = name then Some (field s) else None) sections))
         rounds)
  in
  [ (label ^ "_s", "s", med (fun s -> s.sec_s)); (label ^ "_cpu_s", "s", med (fun s -> s.sec_cpu)) ]

(* ------------------------------------------------------------------ *)
(* Host conditions                                                     *)
(* ------------------------------------------------------------------ *)

(** An allocation-free kernel, so its time tracks the host's speed
    and not the code under test. *)
let spin () =
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fff_ffff
  done;
  ignore (Sys.opaque_identity !x)

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let spin_ms () = 1000. *. median (List.init 3 (fun _ -> time spin))

(** Spins completed in the time of one when every domain spins at
    once: [domains] on free cores, 1.0 on a single effective core. *)
let parallelism () =
  let all () =
    let others = List.init (domains - 1) (fun _ -> Domain.spawn spin) in
    spin ();
    List.iter Domain.join others
  in
  let one = median (List.init 3 (fun _ -> time spin)) in
  float domains *. one /. median (List.init 3 (fun _ -> time all))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from spans                                        *)
(* ------------------------------------------------------------------ *)

(** Spans summed per (workload, round): a span's duration in ms under
    its name and under [name@program], each count under [name.count]. *)
let round_tables () =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match String.split_on_char '/' s.sp_op with
      | [ w; r; prog ] ->
        let t =
          match Hashtbl.find_opt groups (w, r) with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 64 in
            Hashtbl.add groups (w, r) t;
            t
        in
        let add k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k)) in
        let ms = 1000. *. (s.sp_end -. s.sp_start) in
        add s.sp_name ms;
        add (s.sp_name ^ "@" ^ prog) ms;
        List.iter (fun (k, v) -> add (s.sp_name ^ "." ^ k) v) s.sp_counts
      | _ -> ())
    !spans;
  groups

(** Every per-layer metric: name, unit, value. Each is the median over
    the traced rounds of the workload that exercises the layer. *)
let layer_metrics ~spin_ms ~parallelism ~overhead_pct =
  let groups = round_tables () in
  let over w f =
    median
      (Hashtbl.fold
         (fun (w', r) t acc ->
           if w' = w && r <> "sched" then
             f (fun k -> Option.value ~default:0. (Hashtbl.find_opt t k)) :: acc
           else acc)
         groups [])
  in
  let get w k = over w (fun t -> t k) in
  let sched k =
    match Hashtbl.find_opt groups ("execute", "sched") with
    | Some t -> Option.value ~default:0. (Hashtbl.find_opt t k)
    | None -> nan
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let c = get "compile" and x = get "execute" and s = get "simulate" in
  let per_program =
    List.concat_map
      (fun p ->
        [
          (Printf.sprintf "compile.%s_ms" p, "ms", c ("op.compile@" ^ p));
          (Printf.sprintf "execute.%s.seq_ms" p, "ms", x ("op.seq@" ^ p));
          (Printf.sprintf "execute.%s.domains_ms" p, "ms", x ("op.domains@" ^ p));
          (Printf.sprintf "simulate.%s_ms" p, "ms", s ("op.sim@" ^ p));
        ])
      program_names
  in
  [
    ("minic.parse_ms", "ms", c "minic.parse");
    ("minic.pretty_ms", "ms", c "minic.pretty");
    ("depgraph.profile_ms", "ms", c "depgraph.profile");
    ("depgraph.profile_mwords", "Mwords", c "depgraph.profile.mwords");
    ("depgraph.profile_runs", "count", c "depgraph.profile.runs");
    ("depgraph.accesses", "count", c "depgraph.profile.accesses");
    ( "depgraph.ns_per_access",
      "ns",
      over "compile" (fun t -> ratio (1e6 *. t "depgraph.profile") (t "depgraph.profile.accesses")) );
    ("privatize.classify_ms", "ms", c "privatize.classify");
    ("privatize.classes", "count", c "privatize.classify.classes");
    ("privatize.private_classes", "count", c "privatize.classify.private_classes");
    ("alias.andersen_ms", "ms", c "alias.andersen");
    (* expand_loops runs the alias analysis inside Plan.make *)
    ( "expand.expand_ms",
      "ms",
      over "compile" (fun t -> t "expand.expand_loops" -. t "alias.andersen") );
    ("expand.privatized", "count", c "expand.expand_loops.privatized");
    ("optim.dead_stores_removed", "count", c "expand.expand_loops.dead_stores_removed");
    ("optim.loads_propagated", "count", c "expand.expand_loops.loads_propagated");
    ("optim.self_assigns_removed", "count", c "expand.expand_loops.self_assigns_removed");
    ("interp.load_ms", "ms", x "interp.load");
    ("interp.run_ms", "ms", x "interp.run");
    ("interp.cycles", "cycles", x "interp.run.cycles");
    ( "interp.mwords",
      "Mwords",
      over "execute" (fun t -> t "interp.load.mwords" +. t "interp.run.mwords") );
    ( "interp.ns_per_cycle",
      "ns",
      over "execute" (fun t -> ratio (1e6 *. t "interp.run") (t "interp.run.cycles")) );
    ( "interp.words_per_cycle",
      "words",
      over "execute" (fun t -> ratio (1e6 *. t "interp.run.mwords") (t "interp.run.cycles")) );
    ("domexec.exec_ms", "ms", x "domexec.exec");
    ("domexec.window_ms", "ms", x "domexec.exec.window_ms");
    ( "domexec.prepass_ms",
      "ms",
      over "execute" (fun t -> t "domexec.exec" -. t "domexec.exec.window_ms") );
    ( "domexec.supervise_ms",
      "ms",
      over "execute" (fun t -> t "domexec.supervise" -. t "domexec.exec") );
    ("domexec.mwords", "Mwords", x "op.domains.mwords");
    ("domexec.merges", "count", x "domexec.supervise.merges");
    ("domexec.chunks", "count", x "domexec.supervise.chunks");
    ("domexec.steals", "count", x "domexec.supervise.steals");
    ("domexec.distributed_loops", "count", x "domexec.supervise.distributed_loops");
    ("domexec.replicated_loops", "count", x "domexec.supervise.replicated_loops");
    ("domexec.merge_ms", "ms", sched "domexec.recorded.merge_ms");
    ("domexec.idle_ms", "ms", sched "domexec.recorded.idle_ms");
    ( "domexec.gc_share",
      "ratio",
      ratio (sched "domexec.recorded.gc_ns") (sched "domexec.recorded.run_ns") );
    ("guard.check_ms", "ms", x "guard.check");
    ("guard.oracle_ms", "ms", get "setup" "guard.oracle");
    ("parexec.seq_ms", "ms", s "parexec.seq");
    ("parexec.par_ms", "ms", s "parexec.par");
    ("parexec.sim_cycles", "cycles", s "parexec.par.sim_cycles");
    ("parexec.cache_stall_cycles", "cycles", s "parexec.par.cache_stall_cycles");
    ("parexec.dram_bytes", "bytes", s "parexec.par.dram_bytes");
    ( "parexec.mwords",
      "Mwords",
      over "simulate" (fun t -> t "parexec.seq.mwords" +. t "parexec.par.mwords") );
    ("runtimepriv.rp_ms", "ms", s "runtimepriv.rp");
  ]
  @ per_program
  @ [
      ("host.spin_ms", "ms", spin_ms);
      ("host.parallelism", "x", parallelism);
      ("trace.overhead_pct", "%", overhead_pct);
    ]

(** One recorder-attached domain run, for the scheduler report's merge,
    idle and GC figures. *)
let recorded (e : entry) =
  let r = ready e in
  let tr = Domexec.Domtrace.create () in
  span "domexec.recorded"
    ~counts:(fun (rep : Domexec.Domtrace.Sched_report.report) ->
      let total f =
        Array.fold_left (fun a d -> a + f d) 0 rep.Domexec.Domtrace.Sched_report.sr_domains
      in
      let ms f = float_of_int (total f) /. 1e6 in
      [
        ("merge_ms", ms (fun d -> d.Domexec.Domtrace.Sched_report.dr_merge_ns));
        ("idle_ms", ms (fun d -> d.Domexec.Domtrace.Sched_report.dr_idle_ns));
        count "gc_ns" rep.Domexec.Domtrace.Sched_report.sr_gc_ns;
        count "run_ns" (total (fun d -> d.Domexec.Domtrace.Sched_report.dr_run_ns));
      ])
    (fun () ->
      let x =
        Domexec.Exec.run ~domains ~force:true ~trace:tr r.c.res.Expand.Transform.transformed
          r.c.res.Expand.Transform.plan r.c.lids
      in
      check_exec e r.c "recorded domain run" x;
      Domexec.Domtrace.Sched_report.analyze tr)

(** The spans as JSON; self time is a span's duration less its
    children's. *)
let spans_json ~workload ~seed =
  let open Telemetry.Json in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.sp_parent
        ((s.sp_end -. s.sp_start) +. Option.value ~default:0. (Hashtbl.find_opt children s.sp_parent)))
    !spans;
  let ms t = Float (1000. *. (t -. process_start)) in
  Obj
    [
      ("workload", Str workload);
      ("seed", Int seed);
      ( "spans",
        List
          (List.rev_map
             (fun s ->
               let dur = s.sp_end -. s.sp_start in
               Obj
                 [
                   ("id", Int s.sp_id);
                   ("name", Str s.sp_name);
                   ("op", Str s.sp_op);
                   ("parent", Int s.sp_parent);
                   ("start_ms", ms s.sp_start);
                   ("end_ms", ms s.sp_end);
                   ( "self_ms",
                     Float
                       (1000.
                       *. (dur -. Option.value ~default:0. (Hashtbl.find_opt children s.sp_id))) );
                   ("counts", Obj (List.map (fun (k, v) -> (k, Float v)) s.sp_counts));
                 ])
             !spans) );
    ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let workloads = [ "compile"; "execute"; "simulate" ]

(** Rounds of [workload] until [seconds] have passed since [start];
    at least one. *)
let rounds_until ~start ~seconds f =
  let rec go i acc = if i > 0 && now () -. start >= seconds then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

type outcome = {
  metrics : (string * string * float) list;  (** reported: name, unit, value *)
  detail : (string * string * float) list;  (** printed only *)
}

let untraced_run ~workload ~seed ~seconds ~expected_dir =
  let entries = ref [] in
  let rec setups acc =
    if List.length acc >= min_setups && sum acc >= min_setup_s then acc
    else begin
      (* each set-up starts from a collected heap, as the first does *)
      entries := [];
      Gc.full_major ();
      let c0 = if acc = [] then 0. else cpu_now () in
      entries := setup ~expected_dir ~compiled:(workload <> "compile");
      setups ((cpu_now () -. c0) :: acc)
    end
  in
  let setup_s = setups [] in
  let spin_before = spin_ms () in
  let parallelism = parallelism () in
  let rng = Random.State.make [| seed |] in
  let rounds =
    rounds_until ~start:(now ()) ~seconds (fun index -> round ~rng ~workload ~index !entries)
  in
  let spin_after = spin_ms () in
  let med f = median (List.map f rounds) in
  let mwords = med (fun r -> sum (List.map (fun s -> s.sec_words) r)) /. 1e6 in
  let code_bytes = float_of_int (exact_total "code_bytes") in
  let timings =
    match workload with
    | "compile" -> section_medians rounds "compile" "op.compile"
    | "execute" -> section_medians rounds "seq" "op.seq" @ section_medians rounds "domains" "op.domains"
    | _ ->
      section_medians rounds "sim" "op.sim"
      @ [ ("sim_cycles", "cycles", float_of_int (exact_total "sim_cycles")) ]
  in
  let metrics =
    [
      ("setup_s", "s", median setup_s);
      ("round_cpu_s", "s", med round_cpu);
      ("code_bytes", "bytes", code_bytes);
      ("alloc_mwords", "Mwords", mwords);
      ("peak_rss_mb", "MB", peak_rss_mb ());
    ]
  in
  let detail =
    timings
    @ [
        ("round_wall_s", "s", med round_time);
        ("rounds", "count", float_of_int (List.length rounds));
        ("setups", "count", float_of_int (List.length setup_s));
        ( "fail_ratio",
          "ratio",
          float_of_int tally.failed /. float_of_int (max 1 tally.attempted) );
        ("host.spin_ms", "ms", median [ spin_before; spin_after ]);
        ("host.spin_before_ms", "ms", spin_before);
        ("host.spin_after_ms", "ms", spin_after);
        ("host.parallelism", "x", parallelism);
      ]
  in
  { metrics; detail }

let traced_run ~workload ~seed ~seconds ~expected_dir =
  tracing := true;
  let entries = setup ~expected_dir ~compiled:true in
  let spin_before = spin_ms () in
  let parallelism = parallelism () in
  let rng = Random.State.make [| seed |] in
  let start = now () in
  (* one traced round of each other workload, so every layer has spans *)
  List.iter
    (fun w -> if w <> workload then ignore (round ~rng ~workload:w ~index:0 entries))
    workloads;
  (* the workload's own rounds alternate untraced and traced, for the
     tracing overhead *)
  let pairs =
    rounds_until ~start ~seconds (fun i ->
        tracing := false;
        let plain = round_cpu (round ~rng ~workload ~index:(2 * i) entries) in
        tracing := true;
        let traced = round_cpu (round ~rng ~workload ~index:((2 * i) + 1) entries) in
        (plain, traced))
  in
  (* last: the recorder starts Runtime_events, which stays on *)
  List.iter
    (fun (e : entry) ->
      current_op := "execute/sched/" ^ e.p.name;
      ignore (attempt (fun () -> recorded e)))
    entries;
  let spin_after = spin_ms () in
  let plain = median (List.map fst pairs) and traced = median (List.map snd pairs) in
  let metrics =
    layer_metrics
      ~spin_ms:(median [ spin_before; spin_after ])
      ~parallelism
      ~overhead_pct:(100. *. (traced -. plain) /. plain)
  in
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let path = Printf.sprintf ".perfbench/spans-%s-%d.json" workload seed in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Telemetry.Json.to_string (spans_json ~workload ~seed)));
  { metrics; detail = [ ("spans", "count", float_of_int (List.length !spans)) ] }

let usage =
  "bench.exe --workload compile|execute|simulate --seed N --seconds S --trace 0|1 \
   [--expected-dir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let expected_dir = ref "perfbench/expected" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "compile, execute or simulate");
      ("--seed", Arg.Set_int seed, "orders the programs within each round");
      ("--seconds", Arg.Set_float seconds, "how long the rounds run");
      ("--trace", Arg.Set_int trace, "1: per-layer metrics from spans");
      ("--expected-dir", Arg.Set_string expected_dir, "expected program outputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let run = if !trace = 1 then traced_run else untraced_run in
  let o = run ~workload:!workload ~seed:!seed ~seconds:!seconds ~expected_dir:!expected_dir in
  Printf.printf "perfbench %s seed %d trace %d: %d operations, %d failed\n" !workload !seed
    !trace tally.attempted tally.failed;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-28s %.10g %s\n" name v unit)
    (o.metrics @ o.detail);
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) o.metrics in
  let open Telemetry.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (tally.failed = 0 && finite));
            ("attempted", Int tally.attempted);
            ("failed", Int tally.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, unit, v) -> (name, Obj [ ("value", Float v); ("unit", Str unit) ]))
                   o.metrics) );
          ]))
