(** The one pass over a ring: each (attempt, domain) event stream
    becomes a list of typed intervals plus point events and counts,
    which every view of a recording — the Chrome trace, the scheduler
    report and the critical-path profile — folds over.

    Boundary events ([Run_begin], [Run_end], chunk claim/start/finish,
    merge begin/end) cut the stream into consecutive segments; every
    other event is a point inside the segment it falls in. A segment
    takes its class from the event that opens it — interpreter time
    after [Run_begin], a chunk finish or a merge end; claim; chunk
    execution; merge replay — except the gap closed by [Merge_begin],
    which is the wait for the merge barrier whatever opened it. The
    gap before [Run_begin] belongs to no segment, [Run_end] opens
    none, and a segment still open at the end of the stream (a
    poisoned domain, a crashed attempt) closes at the last event. *)

type cls = Interp | Claim | Exec | Merge | Barrier

(** Steal-probe and supervised-backoff time inside a segment, carved
    out of it in event order. A carve is capped at the part of the
    segment not yet carved when its event was written. *)
type carve = Steal of int | Backoff of int

type seg = {
  s_cls : cls;
  s_ns : int;
      (** host ns from the opening to the closing event, carves
          included *)
  s_vt : int;  (** interpreter cycles advanced over the segment *)
  s_carves : carve list;
  s_tick0 : int;  (** index of the opening event in the stream *)
  s_tick1 : int;
      (** index of the closing event; the event count when the stream
          ended first *)
  s_lid : int;
  s_inv : int;
      (** claim and exec: the chunk's loop and invocation; merge and
          barrier: the merge's, the join key of the barrier *)
  s_chunk : int;  (** claim and exec: the chunk index *)
  s_bytes : int;  (** closed by [Merge_end]: the bytes it replayed *)
}

type stream = {
  st_segs : seg list;  (** in stream order *)
  st_points : (int * Ring.kind) list;
      (** index and kind of every non-boundary event, in stream order *)
  st_attempt : (int * int * int option) option;
      (** when [Run_begin] was kept: the attempt index it carries, its
          event index and that of [Run_end], if any *)
  st_events : int;  (** events kept *)
  st_written : int;  (** events written, drops included *)
  st_drops : int;
  st_run_ns : int;
      (** [Run_begin] to [Run_end] or, lacking it, the last event; 0
          without [Run_begin] *)
  st_chunks : int;  (** chunks finished *)
  st_stolen : int;
  st_steal_empty : int;
  st_steal_lost : int;
  st_steal_ns : int;  (** summed probe times, uncapped *)
  st_backoff_ns : int;  (** summed backoff sleeps, uncapped *)
  st_retries : int;
  st_poisoned : bool;
  st_gc_minor : int;
  st_gc_major : int;
  st_gc_words : int;
  st_gc_dirty : int;  (** GC samples that saw a collection *)
}

val of_ring : Ring.t -> stream

(** The most domains any attempt had, over per-attempt stream arrays. *)
val domains : stream array list -> int

(** [f] summed over every stream of every attempt. *)
val sum : (stream -> int) -> stream array list -> int
