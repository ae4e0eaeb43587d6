(* Executor runs of an expanded program, each judged against the
   sequential oracle by Guard.Contract.verdict (output, exit code and
   final globals); a difference raises Guard.Violation.Violation. *)

(* The expanded program run sequentially (tid 0) with __nthreads = n. *)
let sequential oracle (res : Expand.Transform.result) n =
  let m = Interp.Machine.load res.Expand.Transform.transformed in
  Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" n;
  let exit = Interp.Machine.run m in
  Guard.Contract.verdict oracle ~plan:res.Expand.Transform.plan ~exit m

(* The simulator at [threads]; its machine reaches the verdict through
   the [attach] hook. *)
let simulated ?rp oracle (res : Expand.Transform.result) specs ~threads =
  let machine = ref None in
  let pr =
    Parexec.Sim.run_parallel ?rp
      ~attach:(fun m -> machine := Some m)
      res.Expand.Transform.transformed specs ~threads
  in
  Guard.Contract.verdict oracle ~plan:res.Expand.Transform.plan
    ~exit:pr.Parexec.Sim.pr_exit (Option.get !machine);
  pr

(* A finished domain run. *)
let domains oracle (res : Expand.Transform.result) (r : Domexec.Exec.result) =
  Guard.Contract.verdict oracle ~plan:res.Expand.Transform.plan
    ~exit:r.Domexec.Exec.dx_exit r.Domexec.Exec.dx_machine
