(** Real parallel execution of expanded programs on OCaml 5 domains.

    The executor pins one interpreter instance per domain. Every
    machine runs the whole expanded program; for each {e distributed}
    parallel loop the iteration space is split into chunks, chunks are
    homed round-robin onto per-domain work-stealing deques, and each
    machine walks the loop's traversal (condition and step on every
    iteration) while executing bodies only for the chunks it acquired
    — its own, popped at their boundary, or chunks stolen from busier
    domains. Executed iterations record every non-stack store into a
    write log and their printed bytes into an output fragment; at loop
    exit a barrier is taken and every machine replays all logs in
    iteration order (last-writer-wins reproduces the sequential memory
    state byte for byte), merges basic induction variables by summing
    per-domain deltas, and splices the output fragments in iteration
    order. Machines therefore leave every loop in identical states,
    and the run's final output/memory is byte-identical to the
    sequential oracle.

    A distribution-safety pre-pass (one instrumented sequential run of
    the expanded program, over a flat {!Interp.Shadow} of 8-byte
    granules stamped with an invocation epoch) demotes to
    {e replicated} — executed in full by every machine, which is
    trivially consistent — any loop with a loop-carried flow
    dependence, allocation, [rand] advancement, early exit, or an
    induction variable used outside its own update. It checks
    globals, the heap and the loop function's own locals, whose values
    carry across iterations; callee frames are skipped. Builtin string
    reads ([strlen], [puts], [printf]) reach it through the
    interpreter's read hook. When no distributed invocation runs an
    iteration, N machines would each only replay that run, so the
    pre-pass machine's own run is the result: one domain, no chunks,
    and a fallback reason. *)

open Minic

type decision =
  | Distributed
  | Replicated of string  (** reason the loop runs on every machine *)

type loop_report = {
  lr_lid : Ast.lid;
  lr_decision : decision;
  lr_invocations : int;
  lr_iterations : int;  (** total iterations across invocations *)
}

type result = {
  dx_exit : int;
  dx_output : string;
  dx_requested : int;  (** domains asked for *)
  dx_domains : int;  (** domains actually used *)
  dx_wall_ns : float;
      (** spawn-to-join (run only; loading excluded); on one machine,
          that machine's run — the instrumented pre-pass run when no
          loop iteration distributes *)
  dx_steals : int;
  dx_steal_lost : int;  (** steal CAS races lost (incl. injected) *)
  dx_chunks_run : int array;  (** chunks executed, per domain *)
  dx_merges : int;  (** distributed invocations merged *)
  dx_loops : loop_report list;
  dx_fallback : string option;
      (** reason when the run used one machine: one domain requested or
          available, or no loop iteration distributes *)
  dx_machine : Interp.Machine.t;
      (** domain 0's machine after the run, for contract checking *)
}

(** One chunk of one distributed-loop invocation — the executor's unit
    of idempotent recovery. *)
type chunk_ref = {
  ck_lid : Ast.lid;
  ck_inv : int;  (** invocation index of the loop *)
  ck_chunk : int;
  ck_nchunks : int;
}

(** Raised (on every domain) when the supervisor's watchdog cancels
    the run: the poison pill that drains the barrier instead of
    hanging. *)
exception Supervised_abort of string

(** A chunk's acquisition kept crashing past the retry budget. *)
exception Retry_exhausted of chunk_ref

(** Merge-time verification found a chunk whose write log / output
    fragment no longer matches the digest recorded at completion. *)
exception Log_corrupted of chunk_ref

(** Merge-time verification found a chunk nobody executed (scheduler
    invariant broken — never expected, checked anyway). *)
exception Chunk_lost of chunk_ref

(** Callbacks a supervisor installs into the executor. The executor
    stays policy-free: it reports chunk lifecycle events and obeys
    injected decisions; retry budgets, heartbeats, watchdogs and fault
    plans live behind these functions (see [Supervisor]).

    With [sup] absent the executor behaves exactly as before —
    no digests, no verification, no per-chunk bookkeeping — so
    unsupervised runs pay nothing. *)
type supervision = {
  sv_budget : int;
      (** acquisition attempts allowed per chunk before
          {!Retry_exhausted} *)
  sv_on_chunk : dom:int -> attempt:int -> chunk_ref -> bool;
      (** called before each acquisition attempt (stamps the
          heartbeat). [false] simulates a crash of this attempt: the
          chunk's work is discarded and the acquisition retried after
          {!supervision.sv_backoff}. An injected stall blocks inside
          this call until the watchdog aborts the run. *)
  sv_backoff : attempt:int -> unit;
      (** deterministic backoff between acquisition attempts *)
  sv_chunk_done : dom:int -> chunk_ref -> unit;
      (** chunk executed and digested; clears the heartbeat *)
  sv_corrupt_log : dom:int -> chunk_ref -> bool;
      (** [true] = corrupt this chunk's recorded write log (fault
          injection); flips one byte after the digest is taken, so
          merge-time verification must catch it *)
  sv_steal_veto : dom:int -> bool;
      (** [true] = force this steal attempt to report a lost CAS *)
  sv_tick : unit -> unit;
      (** called on every loop event of every domain: the cancel
          point. Raises {!Supervised_abort} once the watchdog fired. *)
  sv_register_poison : (exn -> unit) -> unit;
      (** gives the supervisor a hook that poisons the run's barrier,
          so a watchdog abort also frees domains blocked in a merge *)
  sv_event : dom:int -> kind:string -> detail:string -> unit;
      (** structured diagnostics only the executor can observe
          (actual corruption, lost steals, retry exhaustion) *)
}

val decision_to_string : decision -> string

(** [Domain.recommended_domain_count ()]. *)
val available_domains : unit -> int

(** Run an expanded program on real domains. [domains] defaults to
    {!available_domains}; when only one core is available the run
    falls back to sequential execution unless [force] is set (domains
    are correct on any core count — [force] is how tests exercise the
    parallel path on small machines). [chunk] overrides the default
    chunk size (trip count / (4 × domains)). [lids] are the analyzed
    parallel-loop candidates; [plan] supplies access verdicts.

    [trace] attaches a {!Domtrace} recorder: the run allocates one
    event {!Ring} per domain ({!Domtrace.begin_attempt}) and emits
    scheduler events — chunk claim/start/finish, typed steal results,
    retry/backoff/heartbeat, poison observation, GC deltas at chunk
    boundaries — into the owning domain's ring. The rings are the
    run's only record of scheduler events: an installed telemetry sink
    gets the run's counters, never per-domain spans. A caller that
    wants domain pseudo-processes in a Chrome trace renders the
    recorder with {!Domtrace.to_chrome}, whose timestamps are logical
    ticks, not host ns. With [trace] absent every emission site is a
    no-op; a run on one machine records nothing, not even an attempt.

    The caller is expected to judge the run by
    [Guard.Contract.verdict] on [dx_exit] and [dx_machine]. *)
val run :
  ?domains:int ->
  ?chunk:int ->
  ?force:bool ->
  ?sup:supervision ->
  ?trace:Domtrace.t ->
  Ast.program ->
  Expand.Plan.t ->
  Ast.lid list ->
  result
