(** See the interface. Layout: slot [i land mask] holds the [i]-th
    event ever written, its kind in [kinds] and five ints (ts, vt, a,
    b, c) in [data]; [written] only grows, so the kept events are the
    last [min written capacity]. *)

type kind =
  | Run_begin
  | Run_end
  | Chunk_claim
  | Chunk_start
  | Chunk_finish
  | Steal_stolen
  | Steal_empty
  | Steal_lost
  | Retry
  | Backoff
  | Heartbeat
  | Poison
  | Gc_sample
  | Merge_begin
  | Merge_end

let kind_name = function
  | Run_begin -> "run-begin"
  | Run_end -> "run-end"
  | Chunk_claim -> "chunk-claim"
  | Chunk_start -> "chunk-start"
  | Chunk_finish -> "chunk-finish"
  | Steal_stolen -> "steal"
  | Steal_empty -> "steal-empty"
  | Steal_lost -> "steal-lost"
  | Retry -> "retry"
  | Backoff -> "backoff"
  | Heartbeat -> "heartbeat"
  | Poison -> "poison"
  | Gc_sample -> "gc"
  | Merge_begin -> "merge-begin"
  | Merge_end -> "merge-end"

type event = {
  ev_kind : kind;
  ev_ts : int;
  ev_vt : int;
  ev_a : int;
  ev_b : int;
  ev_c : int;
}

type t = {
  kinds : kind array;
  data : int array;
  mask : int;
  mutable written : int;
}

(* 16k slots = 0.79 MB per domain: two orders of magnitude above what
   a default-chunked run records, small enough that allocating rings
   per attempt adds no measurable GC debt to the traced run (the bench
   gate holds traced runs to ≤5% over untraced). *)
let default_capacity = 16384

let create ?(capacity = default_capacity) () =
  let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
  let cap = pow2 1 in
  {
    kinds = Array.make cap Run_begin;
    data = Array.make (cap * 5) 0;
    mask = cap - 1;
    written = 0;
  }

let capacity r = r.mask + 1
let written r = r.written
let drops r = max 0 (r.written - capacity r)

let emit r k ~ts ?(vt = 0) ~a ~b ~c () =
  let s = r.written land r.mask in
  let i = s * 5 in
  r.kinds.(s) <- k;
  r.data.(i) <- ts;
  r.data.(i + 1) <- vt;
  r.data.(i + 2) <- a;
  r.data.(i + 3) <- b;
  r.data.(i + 4) <- c;
  r.written <- r.written + 1

let events r =
  List.init
    (r.written - drops r)
    (fun j ->
      let s = (drops r + j) land r.mask in
      let i = s * 5 in
      {
        ev_kind = r.kinds.(s);
        ev_ts = r.data.(i);
        ev_vt = r.data.(i + 1);
        ev_a = r.data.(i + 2);
        ev_b = r.data.(i + 3);
        ev_c = r.data.(i + 4);
      })
