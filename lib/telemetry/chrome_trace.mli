(** Chrome [trace_event] exporter (Perfetto / chrome://tracing
    loadable). Each simulated thread gets its own pseudo-pid so
    DOACROSS post/wait stalls are visible per thread; wall-clock
    (toolchain) events are re-timed onto a deterministic logical tick
    line so traces are byte-identical across runs with the same seed.
    B/E events are balanced by construction (leftover spans are closed
    at export). *)

(** Sim-clock events with [tid >= domain_tid_base] belong to real
    OCaml domains (the domexec executor's recorder): tid
    [domain_tid_base + d] renders as pseudo-process "domain-d", and its
    timestamps (the recorder's per-domain logical ticks) are kept
    verbatim rather than re-timed. *)
val domain_tid_base : int

type t

val create : unit -> t
val sink : t -> Sink.t

(** Render the collected events as a Chrome trace JSON object. *)
val export : t -> string

val write : t -> string -> unit
