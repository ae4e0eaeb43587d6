(** Loop-level data dependence graphs (Definition 1 of the paper).

    Vertices are the static memory-access sites of a loop (identified
    by access id); edges record flow, anti- and output dependences,
    each flagged loop-carried or loop-independent. The graph also
    carries the two per-access properties of Definitions 2-3
    (upwards-exposed loads, downwards-exposed stores) and the dynamic
    access counts used by Figure 8. *)

open Minic

type dep_kind = Flow | Anti | Output [@@deriving show { with_path = false }, eq]

type edge = {
  e_src : Ast.aid;  (** earlier access (source of the dependence) *)
  e_dst : Ast.aid;  (** later access (sink) *)
  e_kind : dep_kind;
  e_carried : bool;  (** loop-carried (vs. loop-independent) *)
}
[@@deriving show { with_path = false }, eq]

(** One static access site of the loop. *)
type site = {
  s_aid : Ast.aid;
  s_kind : Visit.access_kind;
  s_text : string;  (** rendered lvalue, for reports *)
}

(** Pseudo access id standing for the world outside the loop, used as
    an edge endpoint when citing loop-boundary dependences (the
    concrete witnesses behind Definition 2/3 exposure marks). *)
let boundary : Ast.aid = -1

type t = {
  loop : Ast.lid;
  sites : site list;
  edges : (edge, unit) Hashtbl.t;
  upwards_exposed : (Ast.aid, unit) Hashtbl.t;
  downwards_exposed : (Ast.aid, unit) Hashtbl.t;
  killed_after_loop : (Ast.aid, unit) Hashtbl.t;
      (** stores whose last-written value a post-loop store overwrote:
          the boundary output dependence cited for store-only classes
          with no in-loop edges *)
  dyn_counts : (Ast.aid, int) Hashtbl.t;
      (** dynamic executions of each site inside the loop *)
  mutable iterations : int;  (** total iterations over all invocations *)
  mutable invocations : int;
  mutable loop_cycles : int;  (** cycles spent inside the loop *)
  mutable total_cycles : int;  (** cycles of the whole program run *)
}

let create (loop : Ast.lid) (sites : site list) : t =
  {
    loop;
    sites;
    edges = Hashtbl.create 64;
    upwards_exposed = Hashtbl.create 16;
    downwards_exposed = Hashtbl.create 16;
    killed_after_loop = Hashtbl.create 16;
    dyn_counts = Hashtbl.create 64;
    iterations = 0;
    invocations = 0;
    loop_cycles = 0;
    total_cycles = 0;
  }

let add_edge g ~src ~dst ~kind ~carried =
  let e = { e_src = src; e_dst = dst; e_kind = kind; e_carried = carried } in
  if not (Hashtbl.mem g.edges e) then Hashtbl.replace g.edges e ()

let remove_edge g e = Hashtbl.remove g.edges e

(** Deep copy: mutating the copy (fault injection) leaves the profiler's
    graph intact. *)
let copy g =
  {
    g with
    edges = Hashtbl.copy g.edges;
    upwards_exposed = Hashtbl.copy g.upwards_exposed;
    downwards_exposed = Hashtbl.copy g.downwards_exposed;
    killed_after_loop = Hashtbl.copy g.killed_after_loop;
    dyn_counts = Hashtbl.copy g.dyn_counts;
  }

let mark_upwards_exposed g aid = Hashtbl.replace g.upwards_exposed aid ()
let mark_downwards_exposed g aid = Hashtbl.replace g.downwards_exposed aid ()
let mark_killed_after_loop g aid = Hashtbl.replace g.killed_after_loop aid ()

let edges g = Hashtbl.fold (fun e () acc -> e :: acc) g.edges []
let is_upwards_exposed g aid = Hashtbl.mem g.upwards_exposed aid
let is_downwards_exposed g aid = Hashtbl.mem g.downwards_exposed aid
let is_killed_after_loop g aid = Hashtbl.mem g.killed_after_loop aid

let dyn_count g aid = Option.value ~default:0 (Hashtbl.find_opt g.dyn_counts aid)

(** Does [aid] participate (as source or sink) in any edge satisfying
    the predicate? *)
let involved_in g aid pred =
  Hashtbl.fold
    (fun e () acc -> acc || ((e.e_src = aid || e.e_dst = aid) && pred e))
    g.edges false

let in_carried_flow g aid =
  involved_in g aid (fun e -> e.e_kind = Flow && e.e_carried)

let in_carried_anti_or_output g aid =
  involved_in g aid (fun e ->
      e.e_carried && (e.e_kind = Anti || e.e_kind = Output))

let in_any_carried g aid = involved_in g aid (fun e -> e.e_carried)

(** Loop-independent dependences, the equivalence generator of
    Definition 4. *)
let independent_pairs g : (Ast.aid * Ast.aid) list =
  Hashtbl.fold
    (fun e () acc -> if e.e_carried then acc else (e.e_src, e.e_dst) :: acc)
    g.edges []

let site g aid = List.find_opt (fun s -> s.s_aid = aid) g.sites

let pp_dep_kind fmt = function
  | Flow -> Format.pp_print_string fmt "flow"
  | Anti -> Format.pp_print_string fmt "anti"
  | Output -> Format.pp_print_string fmt "output"

let dep_kind_name = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"

(** Total order on edges for deterministic evidence lists. *)
let compare_edge (a : edge) (b : edge) : int = compare a b

(** Edges involving [aid] (as source or sink), sorted. *)
let edges_involving (g : t) (aid : Ast.aid) : edge list =
  Hashtbl.fold
    (fun e () acc -> if e.e_src = aid || e.e_dst = aid then e :: acc else acc)
    g.edges []
  |> List.sort_uniq compare_edge

(** Edges involving any of [aids], sorted and deduplicated. *)
let edges_involving_any (g : t) (aids : Ast.aid list) : edge list =
  Hashtbl.fold
    (fun e () acc ->
      if List.mem e.e_src aids || List.mem e.e_dst aids then e :: acc else acc)
    g.edges []
  |> List.sort_uniq compare_edge

(** Rendered access site: stores carry a ["="] prefix (the convention
    of the --report output), unknown ids their raw number. *)
let site_text (g : t) (aid : Ast.aid) : string =
  if aid = boundary then "<outside loop>"
  else
    match site g aid with
    | Some s ->
      (match s.s_kind with Visit.Load -> "" | Visit.Store -> "=")
      ^ s.s_text
    | None -> Printf.sprintf "[%d]" aid

(** One-line citation of a dependence edge against the graph's site
    texts, e.g. ["=a[i] -anti/carried-> a[j]"] — the evidence format
    of the --explain report. *)
let cite_edge (g : t) (e : edge) : string =
  Printf.sprintf "%s -%s%s-> %s" (site_text g e.e_src)
    (dep_kind_name e.e_kind)
    (if e.e_carried then "/carried" else "")
    (site_text g e.e_dst)

(** Human-readable dump, used by the dsexpand CLI's --dump-deps. *)
let to_string (g : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "loop %d: %d sites, %d iterations over %d invocation(s)\n" g.loop
       (List.length g.sites) g.iterations g.invocations);
  List.iter
    (fun s ->
      let tags =
        (if is_upwards_exposed g s.s_aid then [ "upwards-exposed" ] else [])
        @
        if is_downwards_exposed g s.s_aid then [ "downwards-exposed" ] else []
      in
      Buffer.add_string buf
        (Printf.sprintf "  [%d] %s %s (%d dynamic)%s\n" s.s_aid
           (match s.s_kind with Visit.Load -> "load " | Visit.Store -> "store")
           s.s_text (dyn_count g s.s_aid)
           (if tags = [] then "" else " " ^ String.concat ", " tags)))
    g.sites;
  let sorted =
    List.sort compare
      (List.map
         (fun e ->
           Printf.sprintf "  %d -> %d %s%s\n" e.e_src e.e_dst
             (Format.asprintf "%a" pp_dep_kind e.e_kind)
             (if e.e_carried then " (carried)" else ""))
         (edges g))
  in
  List.iter (Buffer.add_string buf) sorted;
  Buffer.contents buf
