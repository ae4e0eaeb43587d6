(** The graceful-degradation ladder.

    Static expansion is speculation: Definition 5's preconditions rest
    on profiled dependences and alias analysis, either of which can be
    wrong. Instead of trusting the expanded program blindly, each run
    climbs down a ladder until a rung holds:

    + {b Static expansion} — the expanded program runs under span
      guards and the privatization contract checker, cross-checked
      against the sequential oracle.
    + {b Runtime privatization} — on an unprovable precondition, a
      tripped guard, a failed run or diverging output, the {e original}
      program is retried under the SpiceC-style runtime-privatization
      baseline (§4.2.1), which privatizes dynamically and needs no
      static claims.
    + {b Sequential} — on further failure, the sequential oracle's
      result is used directly.

    When real execution is requested ([exec = `Domains]) a rung sits
    {e above} static expansion: the expanded program on real OCaml
    domains under [Domexec.Supervisor]. It falls — to the very same
    simulated chain — when supervision aborts (retry budget, watchdog)
    or when the recovered state fails the contract check.

    Every step down records a structured diagnostic (which rung fell,
    why — including the guard's loop/access-class localization), so a
    degraded run is explainable, never silent. *)

open Minic

type rung = Domains | Static_expansion | Runtime_privatization | Sequential

let rung_name = function
  | Domains -> "domains"
  | Static_expansion -> "static-expansion"
  | Runtime_privatization -> "runtime-privatization"
  | Sequential -> "sequential"

type trigger =
  | Unsupported_shape of string
      (** the transformer rejected the program (Definition-5 scope) *)
  | Static_contract of Guard.Violation.info
      (** revalidation against the reference classification failed *)
  | Guard_trip of Guard.Violation.info
      (** a span guard or contract check fired during/after the run *)
  | Run_failure of string  (** machine fault (OOM, memory fault, ...) *)
  | Output_mismatch  (** program output differed from the oracle *)
  | Retry_exhausted of string
      (** the supervisor's chunk-retry budget ran out *)
  | Watchdog_timeout of string
      (** a stalled domain forced the watchdog to cancel the run *)
  | Recovery_mismatch of string
      (** recovery produced state that fails the contract check *)

let trigger_to_string = function
  | Unsupported_shape m -> "unsupported shape: " ^ m
  | Static_contract v -> "static contract: " ^ Guard.Violation.to_string v
  | Guard_trip v -> "guard trip: " ^ Guard.Violation.to_string v
  | Run_failure m -> "run failure: " ^ m
  | Output_mismatch -> "output mismatch vs sequential oracle"
  | Retry_exhausted m -> "retry budget exhausted: " ^ m
  | Watchdog_timeout m -> "watchdog timeout: " ^ m
  | Recovery_mismatch m -> "post-recovery contract mismatch: " ^ m

type diagnostic = { fell_from : rung; trigger : trigger }

let diagnostic_to_string d =
  Printf.sprintf "%s fell: %s" (rung_name d.fell_from)
    (trigger_to_string d.trigger)

type outcome = {
  rung : rung;  (** the rung that finally held *)
  diagnostics : diagnostic list;  (** one per rung that fell, in order *)
  output : string;
  exit_code : int;
  par : Parexec.Sim.par_result option;
      (** the parallel result of the holding rung (None for
          [Sequential] and [Domains]) *)
  dom_sup : Domexec.Supervisor.t option;
      (** the supervised run, whenever the [Domains] rung was tried *)
}

let int_t = Types.Tint Types.IInt

(* The original program plus the two runtime globals the simulator
   pokes; running it under run_parallel executes the unmodified
   sequential semantics with the runtime-privatization surcharge. *)
let rp_program (orig : Ast.program) : Ast.program =
  let p = Expand.Plan.copy_program orig in
  p.Ast.globals <-
    Ast.Gvar (Expand.Names.tid, int_t, None)
    :: Ast.Gvar (Expand.Names.nthreads, int_t, None)
    :: p.Ast.globals;
  p

(* A failed verdict: output or exit code, or a guard or contract check. *)
let trigger_of (v : Guard.Violation.info) : trigger =
  match v.Guard.Violation.guard with
  | Guard.Violation.Contract_output -> Output_mismatch
  | _ -> Guard_trip v

let run ?(threads = 4) ?reference ?oracle ?span_shrink ?attach_extra
    ?(exec = `Sim) ?domains ?chunk ?force ?retry ?watchdog_ms ?fault ?trace
    (orig : Ast.program) (analyses : Privatize.Analyze.result list) : outcome
    =
  let oracle =
    match oracle with
    | Some o -> o
    | None -> Guard.Contract.oracle_of orig analyses
  in
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  let extra m = match attach_extra with Some f -> f m | None -> () in
  (* A simulated run judged by the verdict; [attach] chains guards and
     fault injectors onto the simulator's hooks and returns the stream
     checker, if any. *)
  let simulate ?rp ?plan ~attach prog =
    let machine = ref None and checker = ref None in
    match
      let pr =
        Parexec.Sim.run_parallel ?rp
          ~attach:(fun m ->
            machine := Some m;
            checker := attach m)
          prog specs ~threads
      in
      Guard.Contract.verdict oracle ?plan ?checker:!checker
        ~exit:pr.Parexec.Sim.pr_exit (Option.get !machine);
      pr
    with
    | exception Guard.Violation.Violation v -> Error (trigger_of v)
    | exception (Interp.Memory.Fault msg | Interp.Machine.Runtime_error msg) ->
      Error (Run_failure msg)
    | pr -> Ok pr
  in
  (* Rung 0: guarded static expansion. *)
  let static_attempt () =
    match Expand.Transform.expand_loops ?span_shrink orig analyses with
    | exception Expand.Transform.Unsupported msg ->
      Error (Unsupported_shape msg)
    | res -> (
      let plan = res.Expand.Transform.plan in
      match
        Option.iter (fun r -> Guard.Contract.revalidate plan r) reference
      with
      | exception Guard.Violation.Violation v -> Error (Static_contract v)
      | () ->
        simulate ~plan res.Expand.Transform.transformed ~attach:(fun m ->
            ignore (Guard.Span_guard.attach plan m);
            let checker = Guard.Contract.attach oracle plan m in
            extra m;
            Some checker))
  in
  (* The simulated chain (static expansion -> runtime privatization ->
     sequential), entered either directly or as the fallback of the
     real-domain rung; [diags0]/[dom_sup] carry what happened above. *)
  let sim_chain (diags0 : diagnostic list)
      (dom_sup : Domexec.Supervisor.t option) : outcome =
    match static_attempt () with
    | Ok pr ->
      {
        rung = Static_expansion;
        diagnostics = diags0;
        output = pr.Parexec.Sim.pr_output;
        exit_code = pr.Parexec.Sim.pr_exit;
        par = Some pr;
        dom_sup;
      }
    | Error trigger -> (
      let diags = ref (diags0 @ [ { fell_from = Static_expansion; trigger } ]) in
      (* Next rung: the original program under runtime privatization. *)
      (* the original program, judged on every pointer-free global *)
      match
        simulate ~rp:(Runtimepriv.Rp.config_of orig analyses)
          (rp_program orig) ~attach:(fun _ -> None)
      with
      | Ok pr ->
        {
          rung = Runtime_privatization;
          diagnostics = !diags;
          output = pr.Parexec.Sim.pr_output;
          exit_code = pr.Parexec.Sim.pr_exit;
          par = Some pr;
          dom_sup;
        }
      | Error trigger ->
        diags := !diags @ [ { fell_from = Runtime_privatization; trigger } ];
        (* Last rung: the sequential oracle itself. *)
        {
          rung = Sequential;
          diagnostics = !diags;
          output = oracle.Guard.Contract.o_output;
          exit_code = oracle.Guard.Contract.o_exit;
          par = None;
          dom_sup;
        })
  in
  (* Top rung (only with [exec = `Domains]): the expanded program on
     real domains under supervision, contract-checked after recovery. *)
  let domains_attempt () =
    match Expand.Transform.expand_loops ?span_shrink orig analyses with
    | exception Expand.Transform.Unsupported msg ->
      Error (Unsupported_shape msg, None)
    | res -> (
      let plan = res.Expand.Transform.plan in
      match
        Option.iter (fun r -> Guard.Contract.revalidate plan r) reference
      with
      | exception Guard.Violation.Violation v -> Error (Static_contract v, None)
      | () -> (
        let lids =
          List.map
            (fun (a : Privatize.Analyze.result) ->
              a.Privatize.Analyze.classification.Privatize.Classify.graph
                .Depgraph.Graph.loop)
            analyses
        in
        let sup =
          Domexec.Supervisor.run ?domains ?chunk ?force ?retry ?watchdog_ms
            ?fault ?trace res.Expand.Transform.transformed plan lids
        in
        match sup.Domexec.Supervisor.sup_outcome with
        | Domexec.Supervisor.Aborted reason ->
          let trigger =
            if sup.Domexec.Supervisor.sup_watchdog_fires > 0 then
              Watchdog_timeout reason
            else if sup.Domexec.Supervisor.sup_crashes > 0 then
              Retry_exhausted reason
            else Run_failure reason
          in
          Error (trigger, Some sup)
        | Domexec.Supervisor.Completed | Domexec.Supervisor.Recovered -> (
          let r = Option.get sup.Domexec.Supervisor.sup_result in
          let recovered =
            sup.Domexec.Supervisor.sup_outcome = Domexec.Supervisor.Recovered
          in
          match
            Guard.Contract.verdict oracle ~plan ~exit:r.Domexec.Exec.dx_exit
              r.Domexec.Exec.dx_machine
          with
          | exception Guard.Violation.Violation v ->
            let trigger =
              match trigger_of v with
              | Output_mismatch when recovered ->
                Recovery_mismatch "output differs from the sequential oracle"
              | _ when recovered ->
                Recovery_mismatch (Guard.Violation.to_string v)
              | t -> t
            in
            Error (trigger, Some sup)
          | () -> Ok (r, sup))))
  in
  let outcome =
    match exec with
    | `Sim -> sim_chain [] None
    | `Domains -> (
      match domains_attempt () with
      | Ok (r, sup) ->
        {
          rung = Domains;
          diagnostics = [];
          output = r.Domexec.Exec.dx_output;
          exit_code = r.Domexec.Exec.dx_exit;
          par = None;
          dom_sup = Some sup;
        }
      | Error (trigger, sup) -> sim_chain [ { fell_from = Domains; trigger } ] sup)
  in
  if Telemetry.Sink.enabled () then begin
    Telemetry.Span.count "ladder.rungs_fallen"
      (List.length outcome.diagnostics);
    Telemetry.Span.count ("ladder.held." ^ rung_name outcome.rung) 1
  end;
  outcome
