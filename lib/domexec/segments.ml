(** See the interface. One walk over the kept events: boundary events
    close the open segment (carrying the carves booked inside it) and
    open the next; point events are listed, counted and, for steal
    probes and backoff sleeps, carved out of the open segment. *)

type cls = Interp | Claim | Exec | Merge | Barrier
type carve = Steal of int | Backoff of int

type seg = {
  s_cls : cls;
  s_ns : int;
  s_vt : int;
  s_carves : carve list;
  s_tick0 : int;
  s_tick1 : int;
  s_lid : int;
  s_inv : int;
  s_chunk : int;
  s_bytes : int;
}

type stream = {
  st_segs : seg list;
  st_points : (int * Ring.kind) list;
  st_attempt : (int * int * int option) option;
  st_events : int;
  st_written : int;
  st_drops : int;
  st_run_ns : int;
  st_chunks : int;
  st_stolen : int;
  st_steal_empty : int;
  st_steal_lost : int;
  st_steal_ns : int;
  st_backoff_ns : int;
  st_retries : int;
  st_poisoned : bool;
  st_gc_minor : int;
  st_gc_major : int;
  st_gc_words : int;
  st_gc_dirty : int;
}

let of_ring ring =
  let events = Ring.events ring in
  let n = List.length events in
  let segs = ref [] and points = ref [] in
  (* the open segment: class, opening event, its index *)
  let cur : (cls * Ring.event * int) option ref = ref None in
  let carves = ref [] and carved = ref 0 in
  let close ?cls ?(bytes = 0) (e : Ring.event) tick =
    (match !cur with
    | None -> ()
    | Some (c, (o : Ring.event), tick0) ->
      let barrier = cls = Some Barrier in
      segs :=
        {
          s_cls = Option.value cls ~default:c;
          s_ns = max 0 (e.Ring.ev_ts - o.ev_ts);
          s_vt = max 0 (e.ev_vt - o.ev_vt);
          s_carves = List.rev !carves;
          s_tick0 = tick0;
          s_tick1 = tick;
          s_lid = (if barrier then e.ev_a else o.ev_a);
          s_inv = (if barrier then e.ev_b else o.ev_b);
          s_chunk = o.ev_c;
          s_bytes = bytes;
        }
        :: !segs);
    cur := None;
    carves := [];
    carved := 0
  in
  let carve (e : Ring.event) mk =
    match !cur with
    | Some (_, o, _) ->
      let avail = max 0 (e.Ring.ev_ts - o.Ring.ev_ts - !carved) in
      let ns = min (max 0 e.ev_c) avail in
      if ns > 0 then begin
        carves := mk ns :: !carves;
        carved := !carved + ns
      end
    | None -> ()
  in
  let run_begin = ref None and run_end = ref None in
  List.iteri
    (fun tick (e : Ring.event) ->
      let boundary ?opens ?close_as ?bytes () =
        close ?cls:close_as ?bytes e tick;
        Option.iter (fun c -> cur := Some (c, e, tick)) opens
      in
      let point () = points := (tick, e.Ring.ev_kind) :: !points in
      match e.Ring.ev_kind with
      | Ring.Run_begin ->
        (* the gap before the domain started belongs to no segment *)
        cur := None;
        boundary ~opens:Interp ();
        run_begin := Some (e, tick)
      | Ring.Run_end ->
        boundary ();
        run_end := Some (e, tick)
      | Ring.Chunk_claim -> boundary ~opens:Claim ()
      | Ring.Chunk_start -> boundary ~opens:Exec ()
      | Ring.Chunk_finish -> boundary ~opens:Interp ()
      | Ring.Merge_begin -> boundary ~opens:Merge ~close_as:Barrier ()
      | Ring.Merge_end -> boundary ~opens:Interp ~bytes:(max 0 e.ev_c) ()
      | Ring.Steal_stolen | Ring.Steal_empty | Ring.Steal_lost ->
        carve e (fun ns -> Steal ns);
        point ()
      | Ring.Backoff ->
        carve e (fun ns -> Backoff ns);
        point ()
      | Ring.Retry | Ring.Heartbeat | Ring.Poison | Ring.Gc_sample -> point ())
    events;
  let last = if n = 0 then None else List.nth_opt events (n - 1) in
  Option.iter (fun e -> close e n) last;
  let count p = List.length (List.filter p events) in
  let is k (e : Ring.event) = e.ev_kind = k in
  let sum ks f =
    List.fold_left
      (fun acc (e : Ring.event) ->
        if List.mem e.ev_kind ks then acc + max 0 (f e) else acc)
      0 events
  in
  let steals = [ Ring.Steal_stolen; Ring.Steal_empty; Ring.Steal_lost ] in
  {
    st_segs = List.rev !segs;
    st_points = List.rev !points;
    st_attempt =
      Option.map
        (fun ((b : Ring.event), t0) -> (b.ev_c, t0, Option.map snd !run_end))
        !run_begin;
    st_events = n;
    st_written = Ring.written ring;
    st_drops = Ring.drops ring;
    st_run_ns =
      (match (!run_begin, !run_end, last) with
      | Some (b, _), Some (e, _), _ | Some (b, _), None, Some e ->
        max 0 (e.ev_ts - b.ev_ts)
      | _ -> 0);
    st_chunks = count (is Ring.Chunk_finish);
    st_stolen = count (is Ring.Steal_stolen);
    st_steal_empty = count (is Ring.Steal_empty);
    st_steal_lost = count (is Ring.Steal_lost);
    st_steal_ns = sum steals (fun e -> e.ev_c);
    st_backoff_ns = sum [ Ring.Backoff ] (fun e -> e.ev_c);
    st_retries = count (is Ring.Retry);
    st_poisoned = count (is Ring.Poison) > 0;
    st_gc_minor = sum [ Ring.Gc_sample ] (fun e -> e.ev_a);
    st_gc_major = sum [ Ring.Gc_sample ] (fun e -> e.ev_b);
    st_gc_words = sum [ Ring.Gc_sample ] (fun e -> e.ev_c);
    st_gc_dirty =
      count (fun e -> is Ring.Gc_sample e && (e.ev_a > 0 || e.ev_b > 0));
  }

let domains streams =
  List.fold_left (fun m s -> max m (Array.length s)) 0 streams

let sum f streams =
  List.fold_left (Array.fold_left (fun n st -> n + f st)) 0 streams
