(** The privatization-contract checker.

    A correct expansion is an equivalence transformation of the
    sequential program: because the simulator executes iterations in
    sequential order, every original access site must load and store
    exactly the value sequence the original program produced, and the
    final contents of every global the expansion left alone must match
    bit for bit. A misclassified access class (a dependence the
    profiler missed, an imprecise alias result, an injected fault)
    breaks one of these first at some access — which this checker
    localizes.

    Three layers, ordered from cheapest to strongest:

    - {!revalidate}: static cross-check of the plan's Definition-5
      claims against a reference classification, before running
      anything.
    - {!attach}: per-access value streams. The sequential oracle
      records (kind, value) per original access site; the expanded run
      replays them cursor-by-cursor and raises at the first diverging
      access, naming its loop and access class. Pointer-valued
      accesses are excluded — addresses legitimately differ between
      runs.
    - {!finalize}: stream-completeness plus a final-state comparison
      of eligible globals (non-expanded, pointer-free): expanded
      copies legally hold per-thread partial states, everything else
      must equal the oracle byte for byte. *)

open Minic

type oracle = {
  o_streams : (Ast.aid, Bytes.t) Hashtbl.t;
      (** per access site: 9-byte events, kind char + value (LE) *)
  o_finals : (string, string) Hashtbl.t;  (** global name -> final bytes *)
  o_output : string;
  o_exit : int;
}

let kind_char = function Visit.Load -> 'L' | Visit.Store -> 'S'

(** Access sites of the analyses' loops whose lvalue is not
    pointer-typed (pointer values are addresses and legitimately
    differ between runs). *)
let monitorable_aids (prog : Ast.program)
    (analyses : Privatize.Analyze.result list) : (Ast.aid, unit) Hashtbl.t =
  let sites = Hashtbl.create 256 in
  List.iter
    (fun (a : Privatize.Analyze.result) ->
      List.iter
        (fun (s : Depgraph.Graph.site) ->
          Hashtbl.replace sites s.Depgraph.Graph.s_aid ())
        a.Privatize.Analyze.classification.Privatize.Classify.graph
          .Depgraph.Graph.sites)
    analyses;
  let monitored = Hashtbl.create 256 in
  let env = Typecheck.make_env prog in
  List.iter
    (fun (f : Ast.fundef) ->
      let fe = Typecheck.fenv_of env f in
      List.iter
        (fun (a : Visit.access) ->
          if Hashtbl.mem sites a.Visit.acc_aid then
            match Typecheck.lval_ty fe a.Visit.acc_lval with
            | Types.Tptr _ -> ()
            | _ -> Hashtbl.replace monitored a.Visit.acc_aid ())
        (Visit.accesses_of_fun f))
    (Ast.functions prog);
  monitored

(** Globals eligible for final-state comparison in the original
    program: pointer-free types (addresses differ between runs). *)
let final_globals (prog : Ast.program) : (string * int) list =
  List.filter_map
    (fun (x, t, _) ->
      if Expand.Plan.has_pointer prog.Ast.comps t then None
      else Some (x, Types.sizeof prog.Ast.comps Loc.dummy t))
    (Ast.global_vars prog)

(** Run the original program once, recording the oracle. *)
let oracle_of (prog : Ast.program)
    (analyses : Privatize.Analyze.result list) : oracle =
  let monitored = monitorable_aids prog analyses in
  let bufs : (Ast.aid, Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  (* with nothing monitored (the caller wants only output, exit code
     and finals) the run is a plain one *)
  if Hashtbl.length monitored > 0 then
    st.Interp.Machine.observer <-
      Some
        (fun aid kind addr size ->
          if Hashtbl.mem monitored aid then begin
            let buf =
              match Hashtbl.find_opt bufs aid with
              | Some b -> b
              | None ->
                let b = Buffer.create 256 in
                Hashtbl.replace bufs aid b;
                b
            in
            Buffer.add_char buf (kind_char kind);
            Buffer.add_int64_le buf
              (Interp.Memory.load st.Interp.Machine.mem addr size)
          end);
  let exit_code = Interp.Machine.run m in
  let streams = Hashtbl.create 64 in
  Hashtbl.iter (fun aid b -> Hashtbl.replace streams aid (Buffer.to_bytes b)) bufs;
  let finals = Hashtbl.create 32 in
  List.iter
    (fun (x, size) ->
      let addr = Interp.Machine.global_addr st x in
      Hashtbl.replace finals x
        (Interp.Memory.read_string st.Interp.Machine.mem addr size))
    (final_globals prog);
  {
    o_streams = streams;
    o_finals = finals;
    o_output = Interp.Machine.output st;
    o_exit = exit_code;
  }

(* ------------------------------------------------------------------ *)
(* Static revalidation                                                 *)
(* ------------------------------------------------------------------ *)

(** Cross-check the plan's Definition-5 claims against a reference
    classification: every access the plan privatizes must be judged
    [Private] by the reference too.
    @raise Violation.Violation with [Contract_static] on mismatch. *)
let revalidate (plan : Expand.Plan.t)
    (reference : Privatize.Analyze.result list) : unit =
  let ref_verdicts = Expand.Plan.merge_verdicts reference in
  let diag = Diag.of_analyses reference in
  Hashtbl.iter
    (fun aid v ->
      match (v, Hashtbl.find_opt ref_verdicts aid) with
      | Privatize.Classify.Private, Some ref_v
        when ref_v <> Privatize.Classify.Private ->
        Violation.fire Violation.Contract_static ?loop:(Diag.loop diag aid)
          ~access:aid
          ?access_class:(Diag.access_class diag aid)
          "plan privatizes access %d but the reference classification \
           judges it %s (Definition-5 precondition unprovable)"
          aid
          (Privatize.Classify.show_verdict ref_v)
      | _ -> ())
    plan.Expand.Plan.verdicts

(* ------------------------------------------------------------------ *)
(* Dynamic stream + final-state checking                               *)
(* ------------------------------------------------------------------ *)

type checker = {
  c_oracle : oracle;
  c_plan : Expand.Plan.t;
  c_diag : Diag.t;
  c_cursors : (Ast.aid, int ref) Hashtbl.t;
  c_machine : Interp.Machine.t;
}

let attach (oracle : oracle) (plan : Expand.Plan.t) (m : Interp.Machine.t) :
    checker =
  let diag = Diag.of_analyses plan.Expand.Plan.analyses in
  let cursors = Hashtbl.create 64 in
  Hashtbl.iter
    (fun aid _ -> Hashtbl.replace cursors aid (ref 0))
    oracle.o_streams;
  let st = m.Interp.Machine.st in
  let prev_obs = st.Interp.Machine.observer in
  st.Interp.Machine.observer <-
    Some
      (fun aid kind addr size ->
        (match Hashtbl.find_opt cursors aid with
        | Some cur -> (
          match Hashtbl.find_opt oracle.o_streams aid with
          | Some stream ->
            if !cur + 9 > Bytes.length stream then
              Violation.fire Violation.Contract_stream
                ?loop:(Diag.loop diag aid) ~access:aid
                ?access_class:(Diag.access_class diag aid)
                "access %d executed more often than in the sequential \
                 oracle (%d events)"
                aid
                (Bytes.length stream / 9)
            else begin
              let want_kind = Bytes.get stream !cur in
              let want = Bytes.get_int64_le stream (!cur + 1) in
              let got =
                Interp.Memory.load st.Interp.Machine.mem addr size
              in
              cur := !cur + 9;
              Telemetry.Span.count "contract.stream_checks" 1;
              if want_kind <> kind_char kind || want <> got then
                Violation.fire Violation.Contract_stream
                  ?loop:(Diag.loop diag aid) ~access:aid
                  ?access_class:(Diag.access_class diag aid)
                  "access class diverges from the sequential oracle at \
                   access %d, event #%d: oracle %c %Ld, expanded %c %Ld"
                  aid
                  ((!cur / 9) - 1)
                  want_kind want (kind_char kind) got
            end
          | None -> ())
        | None -> ());
        match prev_obs with Some f -> f aid kind addr size | None -> ());
  {
    c_oracle = oracle;
    c_plan = plan;
    c_diag = diag;
    c_cursors = cursors;
    c_machine = m;
  }

(** Final-state comparison alone: every eligible (non-expanded,
    pointer-free) global must be byte-identical to the oracle. Also
    used standalone by the domain executor, whose runs have no
    per-access streams to consume.
    @raise Violation.Violation on the first divergence. *)
let check_finals (oracle : oracle) (plan : Expand.Plan.t)
    (m : Interp.Machine.t) : unit =
  let st = m.Interp.Machine.st in
  Hashtbl.iter
    (fun x want ->
      if not (Expand.Plan.expanded_var plan x) then
        match Hashtbl.find_opt st.Interp.Machine.global_addrs x with
        | Some addr ->
          let got =
            Interp.Memory.read_string st.Interp.Machine.mem addr
              (String.length want)
          in
          if got <> want then begin
            let diff = ref 0 in
            while String.get got !diff = String.get want !diff do incr diff done;
            Violation.fire Violation.Contract_final
              "final state of global '%s' diverges from the sequential \
               oracle at byte %d (oracle 0x%02x, expanded 0x%02x)"
              x !diff
              (Char.code want.[!diff])
              (Char.code got.[!diff])
          end
          else Telemetry.Span.count "contract.globals_matched" 1
        | None -> ())
    oracle.o_finals

(** Post-run checks: every oracle stream fully consumed, and every
    eligible (non-expanded, pointer-free) global byte-identical to the
    oracle's final state.
    @raise Violation.Violation on the first divergence. *)
let finalize (c : checker) : unit =
  Hashtbl.iter
    (fun aid cur ->
      match Hashtbl.find_opt c.c_oracle.o_streams aid with
      | Some stream when !cur < Bytes.length stream ->
        Violation.fire Violation.Contract_stream
          ?loop:(Diag.loop c.c_diag aid) ~access:aid
          ?access_class:(Diag.access_class c.c_diag aid)
          "access %d executed %d fewer times than in the sequential oracle"
          aid
          ((Bytes.length stream - !cur) / 9)
      | _ -> ())
    c.c_cursors;
  check_finals c.c_oracle c.c_plan c.c_machine;
  Telemetry.Span.count "contract.finalized" 1
