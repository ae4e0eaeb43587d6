(* End-to-end pipeline tests over the sample .c programs in
   test/programs: each must parse, analyze to its golden
   dependence-graph digests, expand, and pass the verdict (output,
   exit code, final globals) sequentially at several thread counts and
   under the simulated parallel schedule. This is the coverage the
   dsexpand CLI relies on for user-supplied files. *)

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
   profiler that came before the single pass, nested_doall.c with the
   single pass). A new program needs an entry. *)
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
    ( "nested_doall.c",
      [ "91c72e9806c88f69a6cfe291f8b29975"; "d8605a0b79f48721d2840717cfa64902" ]
    );
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

let pipeline name src () =
  let p = Typecheck.parse_and_check ~file:name src in
  let lids = p.Ast.parallel_loops in
  Alcotest.(check bool) "has a parallel loop" true (lids <> []);
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  (match List.assoc_opt name golden with
  | Some digests -> Golden.check name digests analyses
  | None -> Alcotest.failf "%s: no golden digest recorded" name);
  let oracle = Guard.Contract.oracle_of p [] in
  let res = Expand.Transform.expand_loops p analyses in
  List.iter (Judge.sequential oracle res) [ 1; 5 ];
  (* a target loop entered inside another runs as plain code of the
     outer loop's iteration *)
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  List.iter
    (fun threads -> ignore (Judge.simulated oracle res specs ~threads))
    [ 2; 8 ];
  (* the pretty-printed transformed program re-parses and still
     behaves identically (the CLI prints it for user consumption) *)
  let printed =
    Pretty.program_to_string res.Expand.Transform.transformed
  in
  let reparsed = Typecheck.parse_and_check ~file:(name ^ ".out") printed in
  Judge.sequential oracle
    { res with Expand.Transform.transformed = reparsed }
    3

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
