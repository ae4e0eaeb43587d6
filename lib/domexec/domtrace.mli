(** Domain-level scheduler tracing: a recorder handed to {!Exec.run}
    (directly or through {!Supervisor.run}), which fills one {!Ring}
    per domain per attempt. Each ring is read once, by the {!Segments}
    pass; the merged Chrome trace, the scheduler-health analyzer here
    and {!Critpath} are folds over those segments.

    The recorder outlives executor attempts on purpose: a supervised
    re-run appends a fresh set of rings, so the trace of a failed
    attempt (the interesting one) survives into the report, and a
    stalled domain's open chunk claim is visible next to the clean
    re-run that recovered from it.

    Merge determinism: {!to_chrome} re-times every event onto a
    per-domain logical tick line (one tick per event, in ring order)
    — no host-clock reading reaches the file — so two runs whose
    domains record the same event sequences export byte-identical
    traces. Scheduling races (who wins a steal) can of course differ
    between runs; under a race-free schedule, and in particular under
    a fixed [--seed] fault plan on a single-chunk loop, traces are
    byte-identical. The {!Sched_report} analyzer keeps the real
    nanosecond timestamps: utilization numbers measure the host, the
    trace's shape does not. *)

type t

(** [create ()] makes an empty recorder. [capacity] sizes each
    per-domain ring ({!Ring.default_capacity} by default); [gc]
    (default true) samples [Gc.quick_stat] deltas at chunk
    boundaries {e and} measures real GC pause time over each attempt
    through [Runtime_events] (turn off for byte-identical trace
    comparisons — GC scheduling is cross-domain and not
    deterministic). *)
val create : ?capacity:int -> ?gc:bool -> unit -> t

val gc_sampling : t -> bool

(** Called by {!Exec.run} once per parallel attempt: allocates one
    ring per domain and returns them, writer [d] = domain [d]. *)
val begin_attempt : t -> domains:int -> Ring.t array

(** Called by {!Exec.run} after the attempt's domains have joined:
    polls the runtime-events cursor and books the GC pause time that
    accrued since [begin_attempt] against the newest attempt. A no-op
    when [gc] is off or runtime events are unavailable. *)
val end_attempt : t -> unit

val attempt_count : t -> int

(** Totals over every ring of every attempt. *)
val total_events : t -> int

val total_drops : t -> int

(** Rebuild a recorder from a saved recording, for tests: per attempt,
    the measured GC pause ns and, per domain, the ring's drop count and
    the events it kept (oldest first). The rebuilt recorder renders and
    analyzes exactly like the one that was saved. *)
val of_recording :
  capacity:int -> (int * (int * Ring.event list) array) list -> t

(** The {!Segments} pass over every ring: per attempt, chronological,
    the streams indexed by domain. Computed once and cached, so every
    view folds over the same streams. *)
val segments : t -> Segments.stream array list

(** Render the segments into a Chrome trace collector — [into], or a
    fresh one: one pseudo-process per domain (reusing
    {!Telemetry.Chrome_trace}'s domain pid mapping), each attempt
    wrapped in an ["attempt-k"] span, chunk claim/execution/merge as
    nested spans, steals/retries/backoff/heartbeats/poison/GC samples
    as instants, all on the logical tick line. B/E pairs are balanced
    by construction. *)
val to_chrome : ?into:Telemetry.Chrome_trace.t -> t -> Telemetry.Chrome_trace.t

(** The scheduler-health analyzer: where each domain's wall time went
    (chunk execution, claim gaps — injected stalls land here — steal
    probing, supervision backoff, merge replay, idle), steal success,
    load imbalance, straggler identification and GC activity. *)
module Sched_report : sig
  type dom_row = {
    dr_dom : int;
    dr_run_ns : int;  (** spawn-to-return, summed over attempts *)
    dr_busy_ns : int;  (** executing chunk iterations *)
    dr_claim_ns : int;
        (** chunk-claim to chunk-start gaps; an injected stall or a
            crash/retry storm shows up here *)
    dr_steal_ns : int;  (** probing other domains' deques *)
    dr_backoff_ns : int;
        (** supervised acquisition backoff sleeps: the sleeping share
            of [dr_claim_ns], which already contains it *)
    dr_merge_ns : int;  (** merge replay at loop exit *)
    dr_idle_ns : int;
        (** the rest of [dr_run_ns] after busy, claim, steal and merge:
            replicated loops, straight-line code, barrier waits *)
    dr_chunks : int;  (** chunks executed to completion *)
    dr_stolen : int;
    dr_steal_empty : int;
    dr_steal_lost : int;
    dr_retries : int;
    dr_poisoned : bool;  (** observed an abort/poison pill *)
    dr_gc_minor : int;  (** minor collections at chunk boundaries *)
    dr_gc_major : int;
    dr_gc_minor_words : int;
    dr_gc_dirty_chunks : int;  (** chunk boundaries with GC activity *)
    dr_gc_ns : int;
        (** this domain's estimated share of the measured GC pause
            time, attributed in proportion to its allocation volume *)
    dr_drops : int;  (** ring overflow drops for this domain *)
  }

  type report = {
    sr_domains : dom_row array;
    sr_attempts : int;
    sr_capacity : int;
    sr_events : int;
    sr_drops : int;
    sr_steal_attempts : int;
    sr_steal_success : float option;  (** None when no attempts *)
    sr_imbalance : float;
        (** load-imbalance coefficient: max/mean over per-domain
            (busy + claim) time; 1.0 = perfectly balanced *)
    sr_straggler : int option;
        (** the dominating domain, flagged only when the imbalance
            coefficient exceeds 1.5 {e and} its busy+claim time exceeds
            the mean by 50 ms (so microsecond-scale noise on tiny loops
            never trips the warning) *)
    sr_gc_ns : int;
        (** measured GC/runtime pause time over all attempts
            (runtime-events begin/end spans, process-wide) *)
    sr_gc_share : float;
        (** [sr_gc_ns] as a fraction of summed per-domain run time,
            clamped to [0, 1]; 0 when GC measurement is off *)
    sr_warnings : string list;
  }

  (** Busy fraction of the domain's run time (0 when unmeasured). *)
  val utilization : dom_row -> float

  val analyze : t -> report

  (** Schema [dsexpand-domtrace/1]; [extra] fields (workload, domain
      count, ...) are prepended to the object. *)
  val to_json :
    ?extra:(string * Telemetry.Json.t) list -> report -> Telemetry.Json.t

  val to_table : report -> string
end
