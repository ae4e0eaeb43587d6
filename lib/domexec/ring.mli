(** Fixed-capacity event buffer, one per domain per attempt.

    The owning domain is the only writer; the recorder reads the ring
    once, after [Domain.join], which is the only synchronization the
    reader needs. Writes never block and never allocate: an event is a
    kind (an immediate) and five ints stored into preallocated flat
    arrays, so tracing stays off the scheduler's critical path. When
    the ring is full the {e oldest} event is overwritten and counted
    as a drop rather than stalling the writer — a trace with a
    truncated head and an honest drop counter beats a slow run. *)

type kind =
  | Run_begin  (** a=domain, b=domain count, c=attempt index *)
  | Run_end  (** a=domain *)
  | Chunk_claim  (** a=lid, b=invocation, c=chunk *)
  | Chunk_start  (** a=lid, b=invocation, c=chunk *)
  | Chunk_finish  (** a=lid, b=invocation, c=chunk *)
  | Steal_stolen  (** a=victim, b=chunk, c=elapsed ns *)
  | Steal_empty  (** a=victim, b=-1, c=elapsed ns *)
  | Steal_lost  (** a=victim, b=-1, c=elapsed ns *)
  | Retry  (** a=lid, b=chunk, c=acquisition attempt *)
  | Backoff  (** a=acquisition attempt, b=0, c=slept ns *)
  | Heartbeat  (** a=lid, b=chunk, c=acquisition attempt *)
  | Poison  (** poison-pill / abort observed while unwinding *)
  | Gc_sample
      (** quick_stat delta at a chunk boundary: a=minor collections,
          b=major collections, c=minor words allocated *)
  | Merge_begin  (** a=lid, b=invocation *)
  | Merge_end  (** a=lid, b=invocation, c=write-log + output bytes replayed *)

val kind_name : kind -> string

type event = {
  ev_kind : kind;
  ev_ts : int;  (** ns since the run's t0 *)
  ev_vt : int;
      (** virtual time: the writing domain's interpreter cycle counter
          at emission. Deterministic under a fixed schedule (it counts
          interpreted work, not host time), which is what lets the
          critical-path profiler export byte-identical artifacts while
          the host-clock [ev_ts] varies run to run. 0 when the emitter
          has no machine attached. *)
  ev_a : int;
  ev_b : int;
  ev_c : int;
}

type t

val default_capacity : int

(** [create ()] preallocates a ring of [capacity] slots (rounded up to
    a power of two; default {!default_capacity}). *)
val create : ?capacity:int -> unit -> t

(** The actual (rounded) capacity. *)
val capacity : t -> int

(** Write one event. Never blocks, never allocates. [vt] defaults
    to 0. *)
val emit : t -> kind -> ts:int -> ?vt:int -> a:int -> b:int -> c:int -> unit -> unit

(** Total events ever written (drops included). *)
val written : t -> int

(** Events overwritten by newer ones. *)
val drops : t -> int

(** The kept events, oldest first. Read after the writer has joined. *)
val events : t -> event list
