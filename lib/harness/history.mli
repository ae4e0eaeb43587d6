(** Persistent bench history and the one regression gate over it.
    A history is a JSONL file, one run per line, schema
    [dsexpand-bench-history/1]. [bench/HISTORY.jsonl] is the
    append-only trend record: did a metric drift across {e runs over
    time}, and when did it jump? [bench/BASELINE.json] is a history of
    one pinned entry, the baseline [bench --compare] gates against.

    Every entry flattens a bench run into [metric-key -> value]
    pairs. Key naming carries the comparison semantics:

    - keys containing ["/cycles"] are deterministic simulator or
      interpreter counts — gated exactly, higher is worse;
    - keys containing ["speedup"] or ["wall"] are host measurements —
      loose tolerance, lower is worse;
    - anything else is tracked but never flagged.

    The analyzer scores each series by comparing its latest value to
    the median of the preceding window (default 5 runs), and scans
    the full series for the most recent changepoint — the first run
    whose value broke tolerance against the median of {e its}
    preceding window and stayed there. *)

type entry = {
  h_time : float;  (** unix seconds at record time *)
  h_rev : string;  (** short git revision, or ["unknown"] *)
  h_domains : int;  (** [Domain.recommended_domain_count] at record time *)
  h_config : string;  (** e.g. ["fast"] or ["full"] *)
  h_metrics : (string * float) list;
}

val entry_to_json : entry -> Telemetry.Json.t

(** Raises [Failure] on a malformed line. *)
val entry_of_json : Telemetry.Json.t -> entry

(** Append one entry as a single JSONL line (creates the file and
    parent directory if missing). *)
val append : file:string -> entry -> unit

(** All entries, oldest first. Malformed lines raise; a missing file
    is an empty history. *)
val load : file:string -> entry list

(** The short git revision of the working tree, or ["unknown"] when
    git is unavailable. *)
val git_rev : unit -> string

type verdict =
  | Stable
  | Improved
  | Regressed
  | Insufficient  (** fewer than two runs recorded this metric *)

type series = {
  s_key : string;
  s_n : int;  (** runs recording this metric *)
  s_latest : float;
  s_baseline : float;  (** median of the preceding window *)
  s_delta : float;  (** (latest - baseline) / baseline, signed *)
  s_exact : bool;
      (** gated with tolerance 0: {!render} prints the values in full
          and the delta as a signed difference *)
  s_verdict : verdict;
  s_changepoint : int option;
      (** index (into the run sequence of this series) of the most
          recent tolerance-breaking jump, if any *)
}

(** Per-metric tolerance (fraction) and whether larger values are
    worse; [None] = informational only. The default implements the
    key-naming convention above: 0 for cycle counts (any increase
    regresses), 25% for wall and speedup numbers. *)
val default_tolerance : string -> (float * bool) option

(** Analyze every metric series across [entries] (oldest first).
    Series are returned sorted: regressions first, then improvements,
    then stable, alphabetical within a group. *)
val analyze :
  ?window:int ->
  ?tolerance:(string -> (float * bool) option) ->
  entry list ->
  series list

(** The regression gate against a pinned baseline: {!analyze} over
    [pinned] (oldest first) followed by [current], keeping only the
    keys [current] records. A gated key the pinned entries lack reads
    [Insufficient], so it is shown but not counted; a key only the
    pinned entries record is not reported. *)
val against : pinned:entry list -> entry -> series list

(** Number of [Regressed] series. *)
val regressions : series list -> int

(** Render the trend report as a table plus per-run header lines.
    Values print as [%.4g] and deltas as percentages, except in rows
    gated exactly, whose values print in full and whose delta is the
    signed difference (a one-cycle regression reads [+1]). *)
val render : entry list -> series list -> string
