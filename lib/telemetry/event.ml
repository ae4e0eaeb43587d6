(** The telemetry event model.

    Two span clocks keep traces deterministic (see DESIGN.md §8):

    - [Wall] spans time toolchain phases (parse, profile, classify,
      plan, expand) against the host clock. Their {e durations} feed
      the metrics report only; trace exporters replace their
      timestamps with a logical tick so trace files never depend on
      host timing.
    - [Sim] spans carry {e simulated-cycle} timestamps from the
      parallel-execution simulator. They are deterministic by
      construction and are exported verbatim.

    [tid] is the simulated thread for [Sim] events ([-1] denotes the
    simulator's own loop-level track) and ignored for [Wall] events.
    Counters and histogram observations are clockless: they aggregate
    order-independently (see {!Counters.merge}). *)

type clock = Wall | Sim

type t =
  | Span_begin of {
      name : string;
      cat : string;
      clock : clock;
      tid : int;
      ts : int;  (** ns for [Wall], simulated cycles for [Sim] *)
    }
  | Span_end of { name : string; clock : clock; tid : int; ts : int }
  | Instant of { name : string; cat : string; clock : clock; tid : int; ts : int }
  | Count of { name : string; delta : int }
  | Observe of { name : string; value : int }

let clock_name = function Wall -> "wall" | Sim -> "sim"
