(* End-to-end pipeline tests over the sample .c programs in
   test/programs: each must parse, analyze to its golden
   dependence-graph digests, expand, preserve output sequentially at
   several thread counts, and match under the simulated parallel
   schedule. This is the coverage the dsexpand CLI relies on for
   user-supplied files. *)

open Minic

(* `dune runtest` runs in the sandbox where [programs/] sits beside
   the test; `dune exec test/...` runs from the workspace root. *)
let programs_dir =
  if Sys.file_exists "programs" then "programs" else "test/programs"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Golden dependence-graph digests (see golden.ml), one per parallel
   loop, recorded with the earlier per-byte-record profiler (the
   early-return programs, nested.c and passmates.c with the per-loop
   profiler that came before the single pass). A new program needs an
   entry. *)
let golden =
  [
    ("early_return.c", [ "35baff681ad01558fae05ff621c73cb7" ]);
    ("granules.c", [ "2d91966581a32b49c4317b82053fceed" ]);
    ( "nested.c",
      [
        "b11aa43d4b7d6076ed404ae539b2fc94";
        "2ce227ace167b14ff962c8f578efe611";
        "253446bd49662109f4ae61ca8a7de8a3";
      ] );
    ( "passmates.c",
      [ "60aa6cfc645c3b2f27a6796418a7e5c2"; "0494b80b2b20707443a378e6334ac75a" ]
    );
    ("recast.c", [ "b4453d6d356b8efcdeece0c6b322107a" ]);
    ( "return_then_doall.c",
      [ "cacb147448bb335a87487c56d6e6b795"; "35520cc5db3eff60e39e7d0543a9e62f" ]
    );
    ("spans.c", [ "1f4785ab153242f029b65ffc2fe0429c" ]);
    ("stencil.c", [ "110ade5b5c33211205dea80e78d4c22f" ]);
    ("treework.c", [ "fb83994442a2f972898cc0cbe8b78b39" ]);
    ("wordhist.c", [ "e4b0476f1e69371f4450ee12da45d253" ]);
  ]

(* The simulator runs one target loop at a time, so a program whose
   parallel loops nest simulates the loops listed here only. *)
let simulated = [ ("nested.c", [ 1 ]) ]

let pipeline name src () =
  let p = Typecheck.parse_and_check ~file:name src in
  let lids = p.Ast.parallel_loops in
  Alcotest.(check bool) "has a parallel loop" true (lids <> []);
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  (match List.assoc_opt name golden with
  | Some digests -> Golden.check name digests analyses
  | None -> Alcotest.failf "%s: no golden digest recorded" name);
  let _, out0 = Interp.Machine.run_program p in
  let res = Expand.Transform.expand_loops p analyses in
  (* sequential equivalence at several N *)
  List.iter
    (fun n ->
      let m = Interp.Machine.load res.Expand.Transform.transformed in
      Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" n;
      ignore (Interp.Machine.run m);
      Alcotest.(check string)
        (Printf.sprintf "sequential N=%d" n)
        out0
        (Interp.Machine.output m.Interp.Machine.st))
    [ 1; 5 ];
  (* simulated parallel equivalence *)
  let specs =
    List.filter_map
      (fun (a : Privatize.Analyze.result) ->
        let g = a.Privatize.Analyze.profile.Depgraph.Profiler.graph in
        match List.assoc_opt name simulated with
        | Some lids when not (List.mem g.Depgraph.Graph.loop lids) -> None
        | _ -> Some (Parexec.Sim.spec_of_analysis a))
      analyses
  in
  List.iter
    (fun t ->
      let pr =
        Parexec.Sim.run_parallel res.Expand.Transform.transformed specs
          ~threads:t
      in
      Alcotest.(check string)
        (Printf.sprintf "parallel T=%d" t)
        out0 pr.Parexec.Sim.pr_output)
    [ 2; 8 ];
  (* the pretty-printed transformed program re-parses and still
     behaves identically (the CLI prints it for user consumption) *)
  let printed =
    Pretty.program_to_string res.Expand.Transform.transformed
  in
  let reparsed = Typecheck.parse_and_check ~file:(name ^ ".out") printed in
  let m = Interp.Machine.load reparsed in
  Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" 3;
  ignore (Interp.Machine.run m);
  Alcotest.(check string) "reparsed transformed output" out0
    (Interp.Machine.output m.Interp.Machine.st)

let () =
  let files = Sys.readdir programs_dir in
  Array.sort compare files;
  let cases =
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.map (fun f ->
           let src = read_file (Filename.concat programs_dir f) in
           Alcotest.test_case f `Quick (pipeline f src))
  in
  Alcotest.run "programs" [ ("pipeline", cases) ]
