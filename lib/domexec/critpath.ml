(** See the interface. Three stages: cut each (attempt, domain)
    segment stream into blocks separated by barrier joins; replay the
    blocks through a virtual clock that advances domains independently
    and synchronizes them at each join; read the critical path off the
    replay (the per-phase leader's segments) under both the
    measured-ns and the virtual-time weighting. *)

(* Accounting classes, in report order. [Exec..Interp] are segment
   classes; [Gc] is carved out of Exec/Interp/Merge segments in
   proportion to the measured pause time; [Barrier] is derived slack,
   never a segment the replay advances through. *)
let cls_exec = 0
let cls_claim = 1
let cls_steal = 2
let cls_backoff = 3
let cls_merge = 4
let cls_gc = 5
let cls_interp = 6
let cls_barrier = 7
let ncls = 8

let cls_names =
  [| "exec"; "claim"; "steal"; "backoff"; "merge"; "gc"; "interp"; "barrier" |]

let cls_name c = cls_names.(c)

type seg = {
  sg_cls : int;
  sg_label : string;
  mutable sg_ns : float;  (** measured ns, GC portion removed *)
  mutable sg_gc_ns : float;  (** GC portion carved from this segment *)
  sg_vt : int;  (** deterministic weight, cycles *)
}

type block = {
  bk_segs : seg list;
  bk_join : (int * int) option;  (** (lid, invocation) barrier key *)
}

type sim = {
  sm_wall : float;
  sm_barrier : float;  (** derived slack at joins, summed over domains *)
  sm_class_path : float array;
  sm_class_total : float array;
}

type profile = {
  p_streams : Segments.stream array list;  (** per attempt, per domain *)
  p_chains : block list array list;  (** the same, cut into blocks *)
  p_domains : int;
  p_schedule : string list array;  (** chunk labels per domain, in order *)
  p_joins : int;
  p_merge_bytes : int;
  p_measured : sim;  (** baseline replay in measured ns *)
  p_vt : sim;  (** baseline replay in interpreter cycles *)
  p_top_chunks : (string * float) list;
}

(* Joins in an attempt: the most any domain took part in. *)
let joins_of (att : block list array) =
  Array.fold_left
    (fun m bl ->
      max m (List.length (List.filter (fun b -> b.bk_join <> None) bl)))
    0 att

(* ------------------------------------------------------------------ *)
(* Blocks: one stream's segments, split at its merge barriers          *)
(* ------------------------------------------------------------------ *)

(* Merge segments advance no interpreter cycles (the replay writes
   memory directly), so their virtual weight adds the replayed byte
   count scaled to word stores. *)
let merge_vt_of_bytes bytes = max 0 bytes / 8

let chunk_label (s : Segments.seg) =
  let base = Printf.sprintf "L%d#%d" s.s_lid s.s_chunk in
  if s.s_inv > 0 then Printf.sprintf "%s@%d" base s.s_inv else base

(* Each segment becomes its carves, then what is left of it (dropped
   when it weighs nothing under either clock). The barrier wait is
   dropped too — the replay re-derives it as slack — and ends a block
   at the merge's join key. [merge_bytes] counts the bytes of the merge
   segments kept. *)
let blocks_of ~merge_bytes (st : Segments.stream) : block list =
  let seg cls label ns vt =
    {
      sg_cls = cls;
      sg_label = label;
      sg_ns = float_of_int ns;
      sg_gc_ns = 0.0;
      sg_vt = vt;
    }
  in
  let blocks, segs =
    List.fold_left
      (fun (blocks, segs) (s : Segments.seg) ->
        let carved, segs =
          List.fold_left
            (fun (carved, segs) c ->
              let cls, ns =
                match c with
                | Segments.Steal ns -> (cls_steal, ns)
                | Segments.Backoff ns -> (cls_backoff, ns)
              in
              (carved + ns, seg cls (cls_name cls) ns 0 :: segs))
            (0, segs) s.s_carves
        in
        let self = max 0 (s.s_ns - carved) in
        let kept = self > 0 || s.s_vt > 0 in
        let keep cls label vt =
          if kept then (blocks, seg cls label self vt :: segs)
          else (blocks, segs)
        in
        match s.s_cls with
        | Segments.Barrier ->
          let join = Some (s.s_lid, s.s_inv) in
          ({ bk_segs = List.rev segs; bk_join = join } :: blocks, [])
        | Interp -> keep cls_interp "interp" s.s_vt
        | Claim -> keep cls_claim "claim" s.s_vt
        | Exec -> keep cls_exec (chunk_label s) s.s_vt
        | Merge ->
          if kept then merge_bytes := !merge_bytes + s.s_bytes;
          keep cls_merge
            (Printf.sprintf "merge L%d" s.s_lid)
            (s.s_vt + merge_vt_of_bytes s.s_bytes))
      ([], []) st.st_segs
  in
  List.rev ({ bk_segs = List.rev segs; bk_join = None } :: blocks)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* [dur seg] returns the (self, gc) weights the replay advances by;
   self books under the segment's class, gc under [cls_gc]. Each
   attempt replays as phases: every domain whose next block ends at a
   join runs it, then all wait for the slowest — the leader, whose
   contribution is on the path — and a final phase runs what is left
   (the attempt-end join). *)
let simulate (chains : block list array list) ~(dur : seg -> float * float)
    : sim =
  let path = Array.make ncls 0.0 in
  let tot = Array.make ncls 0.0 in
  let barrier = ref 0.0 in
  let t_base = ref 0.0 in
  let phase t (runs : block list option array) =
    let run d blocks =
      List.fold_left
        (fun acc b ->
          let c = Array.make ncls 0.0 in
          let dns =
            List.fold_left
              (fun dns s ->
                let self, gc = dur s in
                c.(s.sg_cls) <- c.(s.sg_cls) +. self;
                c.(cls_gc) <- c.(cls_gc) +. gc;
                dns +. self +. gc)
              0.0 b.bk_segs
          in
          Array.iteri (fun i v -> tot.(i) <- tot.(i) +. v) c;
          t.(d) <- t.(d) +. dns;
          Array.map2 ( +. ) acc c)
        (Array.make ncls 0.0) blocks
    in
    let contribs = Array.mapi (fun d -> Option.map (run d)) runs in
    let leader = ref (-1) in
    Array.iteri
      (fun d c ->
        if c <> None && (!leader < 0 || t.(d) > t.(!leader)) then leader := d)
      contribs;
    if !leader >= 0 then begin
      let tmax = t.(!leader) in
      Option.iter
        (Array.iteri (fun i v -> path.(i) <- path.(i) +. v))
        contribs.(!leader);
      Array.iteri
        (fun d c ->
          if c <> None then begin
            barrier := !barrier +. (tmax -. t.(d));
            t.(d) <- tmax
          end)
        contribs;
      t_base := tmax
    end
  in
  List.iter
    (fun (att : block list array) ->
      let t = Array.make (Array.length att) !t_base in
      let cursors = Array.copy att in
      for _ = 1 to joins_of att do
        phase t
          (Array.mapi
             (fun d -> function
               | b :: rest when b.bk_join <> None ->
                 cursors.(d) <- rest;
                 Some [ b ]
               | _ -> None)
             cursors)
      done;
      phase t (Array.map Option.some cursors))
    chains;
  tot.(cls_barrier) <- !barrier;
  {
    sm_wall = !t_base;
    sm_barrier = !barrier;
    sm_class_path = path;
    sm_class_total = tot;
  }

let dur_measured (s : seg) = (s.sg_ns, s.sg_gc_ns)
let dur_vt (s : seg) = (float_of_int s.sg_vt, 0.0)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let analyze (t : Domtrace.t) : profile =
  let streams = Domtrace.segments t in
  let doms = Segments.domains streams in
  let merge_bytes = ref 0 in
  let chains = List.map (Array.map (blocks_of ~merge_bytes)) streams in
  (* [f d seg] over every replay segment, attempt by attempt *)
  let iter_segs f =
    List.iter
      (Array.iteri (fun d -> List.iter (fun b -> List.iter (f d) b.bk_segs)))
      chains
  in
  (* Carve the measured GC pause time out of the classes it actually
     interrupts (chunk execution, interpreter time, merge replay),
     per domain, in proportion to each segment's duration. The
     per-domain pause estimate comes from the sched analyzer's
     allocation-proportional attribution. *)
  let rows =
    (Domtrace.Sched_report.analyze t).Domtrace.Sched_report.sr_domains
  in
  let carveable s =
    s.sg_cls = cls_exec || s.sg_cls = cls_interp || s.sg_cls = cls_merge
  in
  let total = Array.make doms 0.0 in
  iter_segs (fun d s -> if carveable s then total.(d) <- total.(d) +. s.sg_ns);
  iter_segs (fun d s ->
      let gc = float_of_int rows.(d).Domtrace.Sched_report.dr_gc_ns in
      if carveable s && total.(d) > 0.0 && gc > 0.0 then begin
        let f = min 1.0 (gc /. total.(d)) in
        s.sg_gc_ns <- s.sg_ns *. f;
        s.sg_ns <- s.sg_ns *. (1.0 -. f)
      end);
  let tbl = Hashtbl.create 64 in
  iter_segs (fun _ s ->
      if s.sg_cls = cls_exec then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sg_label)
        in
        Hashtbl.replace tbl s.sg_label (prev +. s.sg_ns +. s.sg_gc_ns));
  {
    p_streams = streams;
    p_chains = chains;
    p_domains = doms;
    p_schedule =
      Array.init doms (fun d ->
          List.concat_map
            (fun sts ->
              if d >= Array.length sts then []
              else
                List.filter_map
                  (fun (s : Segments.seg) ->
                    if s.s_cls = Exec then Some (chunk_label s) else None)
                  sts.(d).Segments.st_segs)
            streams);
    p_joins = List.fold_left (fun n att -> n + joins_of att) 0 chains;
    p_merge_bytes = !merge_bytes;
    p_measured = simulate chains ~dur:dur_measured;
    p_vt = simulate chains ~dur:dur_vt;
    p_top_chunks =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (la, a) (lb, b) ->
             match compare b a with 0 -> compare la lb | c -> c)
      |> List.filteri (fun i _ -> i < 5);
  }

(* A count summed over every stream of every attempt. *)
let count p f = Segments.sum f p.p_streams

let domains p = p.p_domains
let attempts p = List.length p.p_streams
let wall_ns p = p.p_measured.sm_wall
let vt_critpath p = int_of_float p.p_vt.sm_wall

let vt_total p =
  let tot = p.p_vt.sm_class_total in
  Array.fold_left ( +. ) 0.0 tot -. tot.(cls_barrier)

let model_parallelism p =
  if p.p_vt.sm_wall <= 0.0 then 1.0 else vt_total p /. p.p_vt.sm_wall

let model_speedup p ~seq_cycles =
  if p.p_vt.sm_wall <= 0.0 then 1.0
  else float_of_int seq_cycles /. p.p_vt.sm_wall

let measured_speedup p ~seq_ns =
  if wall_ns p <= 0.0 then 1.0 else seq_ns /. wall_ns p

let dominant p =
  let path = p.p_measured.sm_class_path in
  let best = ref cls_exec in
  Array.iteri
    (fun i v -> if i <> cls_barrier && v > path.(!best) then best := i)
    path;
  let len = Array.fold_left ( +. ) 0.0 path in
  (cls_name !best, if len <= 0.0 then 0.0 else path.(!best) /. len)

(* How much slower a parallel-run cycle is than a sequential one:
   host-level overhead (write logging, observer hooks, allocation
   pressure) the cycle model does not see. (parallel, sequential,
   ratio) ns per cycle. *)
let exec_inflation p ~seq_ns ~seq_cycles =
  match (seq_ns, seq_cycles) with
  | Some sn, Some sc when sc > 0 && p.p_vt.sm_class_total.(cls_exec) > 0.0 ->
    let tot = p.p_measured.sm_class_total in
    let par =
      (tot.(cls_exec) +. tot.(cls_gc)) /. p.p_vt.sm_class_total.(cls_exec)
    in
    let seq = sn /. float_of_int sc in
    Some (par, seq, if seq > 0.0 then par /. seq else 0.0)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* What-if                                                             *)
(* ------------------------------------------------------------------ *)

type whatif_row = { wf_target : string; wf_speedups : (int * float) list }

let whatif ?(ks = [ 10; 25; 50; 100 ]) (p : profile) : whatif_row list =
  (* [dur f] weighs a segment with the target shrunk to [f] *)
  let row target dur =
    {
      wf_target = target;
      wf_speedups =
        List.map
          (fun k ->
            let f = 1.0 -. (float_of_int k /. 100.0) in
            let s = simulate p.p_chains ~dur:(dur f) in
            (k, if s.sm_wall <= 0.0 then 1.0 else wall_ns p /. s.sm_wall))
          ks;
    }
  in
  let class_row c =
    row (cls_name c) (fun f s ->
        if c = cls_gc then (s.sg_ns, s.sg_gc_ns *. f)
        else if s.sg_cls = c then (s.sg_ns *. f, s.sg_gc_ns)
        else dur_measured s)
  in
  List.map class_row
    (List.filter
       (fun c -> p.p_measured.sm_class_total.(c) > 0.0)
       [
         cls_exec; cls_interp; cls_merge; cls_gc; cls_claim; cls_steal;
         cls_backoff;
       ])
  @
  match p.p_top_chunks with
  | (label, _) :: _ ->
    [
      row label (fun f s ->
          if s.sg_cls = cls_exec && String.equal s.sg_label label then
            (s.sg_ns *. f, s.sg_gc_ns *. f)
          else dur_measured s);
    ]
  | [] -> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* alias: the renderers take a [whatif] boolean that shadows it *)
let whatif_rows = whatif

let to_json ?seq_ns ?seq_cycles ?(whatif = false) ?(extra = []) (p : profile)
    : Telemetry.Json.t =
  let module J = Telemetry.Json in
  let classes_json (s : sim) =
    J.List
      (List.init ncls (fun c ->
           J.Obj
             [
               ("class", J.Str (cls_name c));
               ("path", J.Int (int_of_float s.sm_class_path.(c)));
               ("total", J.Int (int_of_float s.sm_class_total.(c)));
             ]))
  in
  let model =
    J.Obj
      ([
         ("unit", J.Str "interpreter cycles (merge: replayed bytes / 8)");
         ("critpath", J.Int (int_of_float p.p_vt.sm_wall));
         ("total", J.Int (int_of_float (vt_total p)));
         ("parallelism", J.Float (model_parallelism p));
         ("classes", classes_json p.p_vt);
       ]
      @
      match seq_cycles with
      | Some sc ->
        [
          ("seq_cycles", J.Int sc);
          ("speedup", J.Float (model_speedup p ~seq_cycles:sc));
        ]
      | None -> [])
  in
  let base =
    ("schema", J.Str "dsexpand-critpath/1")
    :: extra
    @ [
        ("domains", J.Int p.p_domains);
        ("attempts", J.Int (attempts p));
        ("joins", J.Int p.p_joins);
        ("chunks", J.Int (count p (fun st -> st.st_chunks)));
        ("stolen", J.Int (count p (fun st -> st.st_stolen)));
        ("steal_empty", J.Int (count p (fun st -> st.st_steal_empty)));
        ("steal_lost", J.Int (count p (fun st -> st.st_steal_lost)));
        ("events", J.Int (count p (fun st -> st.st_written)));
        ("drops", J.Int (count p (fun st -> st.st_drops)));
        ("merge_bytes", J.Int p.p_merge_bytes);
        ( "schedule",
          J.List
            (Array.to_list
               (Array.mapi
                  (fun d chunks ->
                    J.Obj
                      [
                        ("domain", J.Int d);
                        ( "chunks",
                          J.List (List.map (fun l -> J.Str l) chunks) );
                      ])
                  p.p_schedule)) );
        ("model", model);
      ]
  in
  if not whatif then J.Obj base
  else begin
    let dom_cls, dom_share = dominant p in
    let measured =
      J.Obj
        ([
           ("wall_ns", J.Int (int_of_float (wall_ns p)));
           ("barrier_ns", J.Int (int_of_float p.p_measured.sm_barrier));
           ("classes", classes_json p.p_measured);
           ("dominant", J.Str dom_cls);
           ("dominant_share", J.Float dom_share);
           ( "top_chunks",
             J.List
               (List.map
                  (fun (l, ns) ->
                    J.Obj
                      [ ("chunk", J.Str l); ("ns", J.Int (int_of_float ns)) ])
                  p.p_top_chunks) );
         ]
        @ (match seq_ns with
          | Some sn ->
            [
              ("seq_ns", J.Int (int_of_float sn));
              ("speedup", J.Float (measured_speedup p ~seq_ns:sn));
            ]
          | None -> [])
        @
        match exec_inflation p ~seq_ns ~seq_cycles with
        | Some (par, seq, ratio) ->
          [
            ( "exec_inflation",
              J.Obj
                [
                  ("par_ns_per_cycle", J.Float par);
                  ("seq_ns_per_cycle", J.Float seq);
                  ("ratio", J.Float ratio);
                ] );
          ]
        | None -> [])
    in
    let wf =
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("target", J.Str r.wf_target);
                 ( "speedup",
                   J.Obj
                     (List.map
                        (fun (k, s) -> (string_of_int k, J.Float s))
                        r.wf_speedups) );
               ])
           (whatif_rows p))
    in
    J.Obj (base @ [ ("measured", measured); ("whatif", wf) ])
  end

let to_table ?seq_ns ?seq_cycles ?(whatif = false) (p : profile) : string =
  let b = Buffer.create 2048 in
  let line s = Buffer.add_string b s in
  (* one row per class with time on the path or in total *)
  let classes (s : sim) ~scale row =
    let len = Array.fold_left ( +. ) 0.0 s.sm_class_path in
    for c = 0 to ncls - 1 do
      let path = s.sm_class_path.(c) and total = s.sm_class_total.(c) in
      if total > 0.0 || path > 0.0 then
        line
          (row (cls_name c) (path /. scale)
             (if len <= 0.0 then 0.0 else 100.0 *. path /. len)
             (total /. scale))
    done
  in
  let drops = count p (fun st -> st.st_drops) in
  line
    (Printf.sprintf
       "critical path: %d domain(s), %d attempt(s), %d join(s), %d chunk(s), \
        %d event(s)%s\n"
       p.p_domains (attempts p) p.p_joins
       (count p (fun st -> st.st_chunks))
       (count p (fun st -> st.st_written))
       (if drops > 0 then Printf.sprintf ", %d drop(s)" drops else ""));
  line
    (Printf.sprintf
       "model (cycles): critpath=%.0f total=%.0f parallelism=%.2f%s\n"
       p.p_vt.sm_wall (vt_total p) (model_parallelism p)
       (match seq_cycles with
       | Some sc ->
         Printf.sprintf " model-speedup=%.2fx" (model_speedup p ~seq_cycles:sc)
       | None -> ""));
  line
    (Printf.sprintf "%-9s %14s %7s %14s\n" "class" "path-cycles" "share"
       "total-cycles");
  classes p.p_vt ~scale:1.0 (Printf.sprintf "%-9s %14.0f %6.1f%% %14.0f\n");
  if whatif then begin
    let dom_cls, dom_share = dominant p in
    line
      (Printf.sprintf
         "measured: wall=%.2fms barrier=%.2fms dominant=%s (%.0f%% of path)%s\n"
         (wall_ns p /. 1e6) (p.p_measured.sm_barrier /. 1e6) dom_cls
         (100.0 *. dom_share)
         (match seq_ns with
         | Some sn ->
           Printf.sprintf " measured-speedup=%.2fx"
             (measured_speedup p ~seq_ns:sn)
         | None -> ""));
    line
      (Printf.sprintf "%-9s %11s %7s %11s\n" "class" "path-ms" "share"
         "total-ms");
    classes p.p_measured ~scale:1e6
      (Printf.sprintf "%-9s %11.2f %6.1f%% %11.2f\n");
    Option.iter
      (fun (par, seq, ratio) ->
        line
          (Printf.sprintf
             "exec inflation: %.2f ns/cycle parallel vs %.2f ns/cycle \
              sequential (%.2fx)\n"
             par seq ratio))
      (exec_inflation p ~seq_ns ~seq_cycles);
    match whatif_rows p with
    | [] -> ()
    | r0 :: _ as rows ->
      line "what-if (virtual speedup from shrinking by k%)\n";
      line
        (Printf.sprintf "%-9s %s\n" "target"
           (String.concat " "
              (List.map (fun (k, _) -> Printf.sprintf "%7d%%" k) r0.wf_speedups)));
      List.iter
        (fun r ->
          line
            (Printf.sprintf "%-9s %s\n" r.wf_target
               (String.concat " "
                  (List.map
                     (fun (_, s) -> Printf.sprintf "%7.2fx" s)
                     r.wf_speedups))))
        rows
  end;
  Buffer.contents b
