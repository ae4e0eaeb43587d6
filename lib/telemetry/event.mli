(** The telemetry event model: nested spans on two clocks (host wall
    time for toolchain phases, simulated cycles for simulator regions
    — the latter keep traces deterministic), monotonically-added
    counters, and histogram observations. *)

type clock = Wall | Sim

type t =
  | Span_begin of {
      name : string;
      cat : string;
      clock : clock;
      tid : int;
          (** simulated thread for [Sim] ([-1] = the simulator's
              loop-level track); ignored for [Wall] *)
      ts : int;  (** ns for [Wall], simulated cycles for [Sim] *)
    }
  | Span_end of { name : string; clock : clock; tid : int; ts : int }
  | Instant of { name : string; cat : string; clock : clock; tid : int; ts : int }
  | Count of { name : string; delta : int }
  | Observe of { name : string; value : int }

val clock_name : clock -> string
