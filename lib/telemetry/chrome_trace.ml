(** Chrome [trace_event] exporter (Perfetto / chrome://tracing).

    Collects span and instant events and renders the JSON object
    format with balanced B/E pairs. Track mapping gives each simulated
    thread its own pseudo-pid so DOACROSS post/wait stalls show as
    per-thread gaps:

    - wall-clock (toolchain) events -> pid 1 "toolchain";
    - the simulator's loop-level track (tid = -1) -> pid 10
      "simulator";
    - simulated thread [t] -> pid [100 + t] "sim-thread-<t>".

    Determinism contract: timestamps of [Sim] events are simulated
    cycles, exported verbatim; [Wall] events are re-timed onto a
    logical tick line (one tick per event, in emission order) so that
    no host-clock reading ever reaches the file. Two runs with the
    same inputs and seed therefore produce byte-identical traces.
    Counter and histogram events carry no time and are not exported
    here (they live in the metrics report). *)

type t = { mutable events : Event.t list (* reversed *) }

let create () : t = { events = [] }

let sink (c : t) : Sink.t =
  {
    Sink.emit =
      (fun e ->
        match e with
        | Event.Span_begin _ | Event.Span_end _ | Event.Instant _ ->
          c.events <- e :: c.events
        | Event.Count _ | Event.Observe _ -> ());
    flush = (fun () -> ());
  }

let wall_pid = 1
let sim_loop_pid = 10
let sim_thread_pid t = 100 + t

(* Real OCaml domains (the domexec executor's recorder) arrive as
   Sim-clock events — their timestamps are per-domain logical ticks,
   already deterministic, so they are kept — in a tid namespace far
   above any simulated thread id, and get one pseudo-process per
   domain. *)
let domain_tid_base = 1000
let domain_pid d = 2000 + d

let pid_of (clock : Event.clock) (tid : int) : int =
  match clock with
  | Event.Wall -> wall_pid
  | Event.Sim ->
    if tid < 0 then sim_loop_pid
    else if tid >= domain_tid_base then domain_pid (tid - domain_tid_base)
    else sim_thread_pid tid

let pid_name (pid : int) : string =
  if pid = wall_pid then "toolchain"
  else if pid = sim_loop_pid then "simulator"
  else if pid >= 2000 then Printf.sprintf "domain-%d" (pid - 2000)
  else Printf.sprintf "sim-thread-%d" (pid - 100)

let record ~ph ~name ?cat ~pid ~ts () : Json.t =
  Json.Obj
    (("name", Json.Str name)
     ::
     (match cat with Some c -> [ ("cat", Json.Str c) ] | None -> [])
    @ [
        ("ph", Json.Str ph); ("ts", Json.Int ts); ("pid", Json.Int pid);
        ("tid", Json.Int 0);
      ])

let export (c : t) : string =
  let events = List.rev c.events in
  (* logical tick line for wall events: one tick each, emission order *)
  let wall_tick = ref 0 in
  let ts_of clock ts =
    match clock with
    | Event.Wall ->
      incr wall_tick;
      !wall_tick
    | Event.Sim -> ts
  in
  let pids = ref [] in
  let note_pid p = if not (List.mem p !pids) then pids := p :: !pids in
  (* per-pid stack of open (name, last ts) to auto-close leftovers *)
  let open_stacks : (int, (string * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack pid =
    match Hashtbl.find_opt open_stacks pid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace open_stacks pid r;
      r
  in
  let last_ts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let body =
    List.filter_map
      (fun e ->
        match e with
        | Event.Span_begin { name; cat; clock; tid; ts } ->
          let pid = pid_of clock tid in
          note_pid pid;
          let ts = ts_of clock ts in
          Hashtbl.replace last_ts pid ts;
          let s = stack pid in
          s := (name, ts) :: !s;
          Some (record ~ph:"B" ~name ~cat ~pid ~ts ())
        | Event.Span_end { name; clock; tid; ts } ->
          let pid = pid_of clock tid in
          note_pid pid;
          let ts = ts_of clock ts in
          Hashtbl.replace last_ts pid ts;
          let s = stack pid in
          (match !s with (n, _) :: rest when n = name -> s := rest | _ -> ());
          Some (record ~ph:"E" ~name ~pid ~ts ())
        | Event.Instant { name; cat; clock; tid; ts } ->
          let pid = pid_of clock tid in
          note_pid pid;
          let ts = ts_of clock ts in
          Hashtbl.replace last_ts pid ts;
          Some
            (Json.Obj
               [
                 ("name", Json.Str name); ("cat", Json.Str cat);
                 ("ph", Json.Str "i"); ("ts", Json.Int ts);
                 ("pid", Json.Int pid); ("tid", Json.Int 0);
                 ("s", Json.Str "t");
               ])
        | Event.Count _ | Event.Observe _ -> None)
      events
  in
  (* close any span left open (e.g. a phase aborted by an exception)
     at its track's last timestamp, keeping B/E balanced *)
  let closers =
    Hashtbl.fold
      (fun pid s acc ->
        let ts = Option.value ~default:0 (Hashtbl.find_opt last_ts pid) in
        List.fold_left
          (fun acc (name, _) -> record ~ph:"E" ~name ~pid ~ts () :: acc)
          acc !s)
      open_stacks []
    |> List.sort compare
  in
  let metadata =
    List.sort compare !pids
    |> List.map (fun pid ->
           Json.Obj
             [
               ("name", Json.Str "process_name"); ("ph", Json.Str "M");
               ("pid", Json.Int pid); ("tid", Json.Int 0);
               ("args", Json.Obj [ ("name", Json.Str (pid_name pid)) ]);
             ])
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (metadata @ body @ closers));
         ("displayTimeUnit", Json.Str "ns");
       ])

let write (c : t) (path : string) : unit =
  let oc = open_out_bin path in
  output_string oc (export c);
  output_char oc '\n';
  close_out oc
