(** See the interface. *)

module J = Telemetry.Json

type entry = {
  h_time : float;
  h_rev : string;
  h_domains : int;
  h_config : string;
  h_metrics : (string * float) list;
}

let schema = "dsexpand-bench-history/1"

let entry_to_json (e : entry) : J.t =
  J.Obj
    [
      ("schema", J.Str schema);
      ("time", J.Float e.h_time);
      ("rev", J.Str e.h_rev);
      ("domains", J.Int e.h_domains);
      ("config", J.Str e.h_config);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) e.h_metrics));
    ]

let number = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> failwith "history: expected a number"

let entry_of_json (j : J.t) : entry =
  let field name =
    match J.member name j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "history: missing field %S" name)
  in
  (match J.member "schema" j with
  | Some (J.Str s) when String.equal s schema -> ()
  | Some (J.Str s) ->
    failwith (Printf.sprintf "history: unsupported schema %S" s)
  | _ -> failwith "history: missing schema");
  let str name =
    match field name with
    | J.Str s -> s
    | _ -> failwith (Printf.sprintf "history: field %S not a string" name)
  in
  let metrics =
    match field "metrics" with
    | J.Obj kvs -> List.map (fun (k, v) -> (k, number v)) kvs
    | _ -> failwith "history: metrics not an object"
  in
  {
    h_time = number (field "time");
    h_rev = str "rev";
    h_domains = int_of_float (number (field "domains"));
    h_config = str "config";
    h_metrics = metrics;
  }

let append ~file (e : entry) =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (entry_to_json e));
      output_char oc '\n')

let load ~file : entry list =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> go acc
          | line -> go (entry_of_json (J.of_string_exn line) :: acc)
        in
        go [])
  end

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.length rev > 0 -> rev
    | _ -> "unknown"
  with _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Trend / changepoint analysis                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Stable | Improved | Regressed | Insufficient

type series = {
  s_key : string;
  s_n : int;
  s_latest : float;
  s_baseline : float;
  s_delta : float;
  s_exact : bool;
  s_verdict : verdict;
  s_changepoint : int option;
}

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Cycle counts are deterministic, so any growth is a regression (and
   any drop an improvement); wall-clock numbers on shared CI hosts
   need a loose 25%. *)
let default_tolerance key =
  if contains ~sub:"/cycles" key then Some (0.0, true)
  else if contains ~sub:"speedup" key then Some (0.25, false)
  else if contains ~sub:"wall" key then Some (0.25, false)
  else None

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* baseline for position i: median of up to [window] preceding values *)
let baseline_at ~window (vals : float array) i =
  let lo = max 0 (i - window) in
  if i <= lo then None
  else Some (median (Array.to_list (Array.sub vals lo (i - lo))))

let worse ~tol ~larger_worse ~baseline v =
  if baseline = 0.0 then false
  else begin
    let delta = (v -. baseline) /. Float.abs baseline in
    if larger_worse then delta > tol else delta < -.tol
  end

let better ~tol ~larger_worse ~baseline v =
  worse ~tol ~larger_worse:(not larger_worse) ~baseline v

let analyze ?(window = 5) ?(tolerance = default_tolerance)
    (entries : entry list) : series list =
  (* key -> values in run order; insertion order of first appearance *)
  let keys = ref [] in
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some l -> l := v :: !l
          | None ->
            keys := k :: !keys;
            Hashtbl.add tbl k (ref [ v ]))
        e.h_metrics)
    entries;
  let mk key =
    let vals = Array.of_list (List.rev !(Hashtbl.find tbl key)) in
    let n = Array.length vals in
    let latest = vals.(n - 1) in
    let exact =
      match tolerance key with Some (tol, _) -> tol = 0.0 | None -> false
    in
    match baseline_at ~window vals (n - 1) with
    | None ->
      {
        s_key = key;
        s_n = n;
        s_latest = latest;
        s_baseline = latest;
        s_delta = 0.0;
        s_exact = exact;
        s_verdict = Insufficient;
        s_changepoint = None;
      }
    | Some baseline ->
      let delta =
        if baseline = 0.0 then 0.0
        else (latest -. baseline) /. Float.abs baseline
      in
      let verdict, changepoint =
        match tolerance key with
        | None -> (Stable, None)
        | Some (tol, larger_worse) ->
          let verdict =
            if worse ~tol ~larger_worse ~baseline latest then Regressed
            else if better ~tol ~larger_worse ~baseline latest then Improved
            else Stable
          in
          (* most recent run that broke tolerance (either direction)
             against its own preceding window: the level shift *)
          let cp = ref None in
          for i = 1 to n - 1 do
            match baseline_at ~window vals i with
            | None -> ()
            | Some base ->
              if
                worse ~tol ~larger_worse ~baseline:base vals.(i)
                || better ~tol ~larger_worse ~baseline:base vals.(i)
              then cp := Some i
          done;
          (verdict, !cp)
      in
      {
        s_key = key;
        s_n = n;
        s_latest = latest;
        s_baseline = baseline;
        s_delta = delta;
        s_exact = exact;
        s_verdict = verdict;
        s_changepoint = changepoint;
      }
  in
  let rank s =
    match s.s_verdict with
    | Regressed -> 0
    | Improved -> 1
    | Stable -> 2
    | Insufficient -> 3
  in
  List.rev !keys |> List.map mk
  |> List.sort (fun a b ->
         match compare (rank a) (rank b) with
         | 0 -> compare a.s_key b.s_key
         | c -> c)

let against ~pinned (current : entry) : series list =
  analyze (pinned @ [ current ])
  |> List.filter (fun s -> List.mem_assoc s.s_key current.h_metrics)

let regressions (ss : series list) =
  List.length (List.filter (fun s -> s.s_verdict = Regressed) ss)

let render (entries : entry list) (ss : series list) : string =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "bench history: %d run(s)\n" (List.length entries));
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "  run %2d: rev=%-10s config=%-6s domains=%d\n" i
           e.h_rev e.h_config e.h_domains))
    entries;
  Buffer.add_string b
    (Printf.sprintf "%-40s %4s %12s %12s %8s %-10s %s\n" "metric" "runs"
       "latest" "baseline" "delta" "verdict" "changepoint");
  List.iter
    (fun s ->
      (* an exact gate fails on a change of one, which a rounded cell or
         a percentage would hide *)
      let latest, baseline, delta =
        if s.s_exact then
          ( Printf.sprintf "%.0f" s.s_latest,
            Printf.sprintf "%.0f" s.s_baseline,
            Printf.sprintf "%+.0f" (s.s_latest -. s.s_baseline) )
        else
          ( Printf.sprintf "%.4g" s.s_latest,
            Printf.sprintf "%.4g" s.s_baseline,
            Printf.sprintf "%+.1f%%" (100.0 *. s.s_delta) )
      in
      Buffer.add_string b
        (Printf.sprintf "%-40s %4d %12s %12s %8s %-10s %s\n" s.s_key s.s_n
           latest baseline delta
           (match s.s_verdict with
           | Stable -> "stable"
           | Improved -> "improved"
           | Regressed -> "REGRESSED"
           | Insufficient -> "n/a")
           (match s.s_changepoint with
           | Some i -> Printf.sprintf "run %d" i
           | None -> "-")))
    ss;
  let nreg = regressions ss in
  Buffer.add_string b
    (if nreg = 0 then "trend: stable (no regressions)\n"
     else Printf.sprintf "trend: %d metric(s) REGRESSED\n" nreg);
  Buffer.contents b
