(* Golden renderings of saved scheduler recordings. Each file under
   recordings/ holds the ring streams of one real supervised run:

     capacity N            ring capacity of the recorder
     attempt GC_NS         one executor attempt, its measured GC pause ns
     domain DROPS          the next domain's ring and its drop count
     KIND TS VT A B C      one kept event, oldest first (Ring.kind_name)

   md5-2: md5 on 2 domains, default chunking, GC sampling on;
   md5-2-chunk1: --chunk 1 (649 events, steal probes);
   md5-2-cap16: the same with ring capacity 16 (events dropped);
   md5-2-crash: --fault domain-crash:2 --seed 11 (retries, backoff);
   md5-2-stall: --fault domain-stall --seed 12 --watchdog-ms 100 (two
   attempts, the first poisoned and without Run_end);
   h263-2: h263-encoder on 2 domains (several invocations);
   md5-4: md5 on 4 domains (a steal).

   Every rendering of every recording is pinned by its MD5: the Chrome
   export, the scheduler report as JSON and as a table, and the
   critical-path profile as JSON (without and with the measured and
   what-if sections) and as a what-if table, all with fixed sequential
   ns and cycle counts. *)

module Ring = Domexec.Ring
module Domtrace = Domexec.Domtrace
module SR = Domexec.Domtrace.Sched_report
module Critpath = Domexec.Critpath

let kinds =
  [
    Ring.Run_begin; Ring.Run_end; Ring.Chunk_claim; Ring.Chunk_start;
    Ring.Chunk_finish; Ring.Steal_stolen; Ring.Steal_empty; Ring.Steal_lost;
    Ring.Retry; Ring.Backoff; Ring.Heartbeat; Ring.Poison; Ring.Gc_sample;
    Ring.Merge_begin; Ring.Merge_end;
  ]

let kind_of_name n =
  match List.find_opt (fun k -> String.equal (Ring.kind_name k) n) kinds with
  | Some k -> k
  | None -> failwith ("unknown event kind " ^ n)

(* dune runtest runs in the test directory; dune exec from the root *)
let dir =
  if Sys.file_exists "recordings" then "recordings" else "test/recordings"

(* Attempts and domains come out in file order. *)
let load name =
  let text =
    In_channel.with_open_bin (Filename.concat dir (name ^ ".rec"))
      In_channel.input_all
  in
  let capacity = ref 0 in
  let attempts = ref [] in
  let close_domain = function
    | (gc, doms, Some (drops, evs)) :: rest ->
      (gc, (drops, List.rev evs) :: doms, None) :: rest
    | l -> l
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "" ] -> ()
      | [ "capacity"; n ] -> capacity := int_of_string n
      | [ "attempt"; gc ] ->
        attempts := (int_of_string gc, [], None) :: close_domain !attempts
      | [ "domain"; drops ] -> (
        match close_domain !attempts with
        | (gc, doms, None) :: rest ->
          attempts := (gc, doms, Some (int_of_string drops, [])) :: rest
        | _ -> failwith "domain outside an attempt")
      | [ k; ts; vt; a; b; c ] -> (
        match !attempts with
        | (gc, doms, Some (drops, evs)) :: rest ->
          let i = int_of_string in
          let e =
            {
              Ring.ev_kind = kind_of_name k;
              ev_ts = i ts;
              ev_vt = i vt;
              ev_a = i a;
              ev_b = i b;
              ev_c = i c;
            }
          in
          attempts := (gc, doms, Some (drops, e :: evs)) :: rest
        | _ -> failwith "event outside a domain")
      | _ -> failwith ("bad recording line: " ^ line))
    (String.split_on_char '\n' text);
  let attempts =
    List.rev_map
      (fun (gc, doms, _) -> (gc, Array.of_list (List.rev doms)))
      (close_domain !attempts)
  in
  Domtrace.of_recording ~capacity:!capacity attempts

let seq_ns = 55_000_000.0
let seq_cycles = 7_500_000

let renderings tr =
  let json = Telemetry.Json.to_string in
  let rep = SR.analyze tr in
  let p = Critpath.analyze tr in
  [
    ("chrome", Telemetry.Chrome_trace.export (Domtrace.to_chrome tr));
    ("sched-json", json (SR.to_json rep));
    ("sched-table", SR.to_table rep);
    ("critpath-json", json (Critpath.to_json ~seq_ns ~seq_cycles p));
    ( "critpath-whatif-json",
      json (Critpath.to_json ~seq_ns ~seq_cycles ~whatif:true p) );
    ("critpath-table", Critpath.to_table ~seq_ns ~seq_cycles ~whatif:true p);
  ]

(* (recording, [(rendering, md5)]) *)
let goldens =
  [
    ( "md5-2",
      [
        ("chrome", "cf41dbde39b7380ee395d1b104a89860");
        ("sched-json", "dbfa6760dd32112e397723ecdbd68b9e");
        ("sched-table", "de3854648cfadd95e816198bd07113af");
        ("critpath-json", "207e4fedffed9a5e1638f82db3cafb48");
        ("critpath-whatif-json", "3eb33f14efc6056e69cbc70a4221a4c3");
        ("critpath-table", "e2137da15078cd02958a380e1b92951f");
      ] );
    ( "md5-2-chunk1",
      [
        ("chrome", "f949c2713c51d87fc1e0f60321859e8c");
        ("sched-json", "1c4a8eed68c0bed0d614f49060f5061c");
        ("sched-table", "84072bcba2388ec053ac9cfe7a45a579");
        ("critpath-json", "bfdb33dc1476775128eac104f6f82865");
        ("critpath-whatif-json", "277a7cd92d291ac65128ce7cad4d3516");
        ("critpath-table", "3f8f4c979398aea73bf54cb203a80fa5");
      ] );
    ( "md5-2-cap16",
      [
        ("chrome", "541124116d1ce7aa112316006a55d9bb");
        ("sched-json", "690cef81cf990642a391ca463d100525");
        ("sched-table", "441181391bee9b098bd4ff2482733d8d");
        ("critpath-json", "43a44b389a3848b412554249f13f283f");
        ("critpath-whatif-json", "9a78a9844bb9da035894f265911b07c1");
        ("critpath-table", "a7f39db5e32df7b8640d7d8b68cff639");
      ] );
    ( "md5-2-crash",
      [
        ("chrome", "f66679ebd062c6edc9288b0ec6c2d911");
        ("sched-json", "c5e72816dbbd98d2be1a600ac4783f7d");
        ("sched-table", "d17dacb7e253b09cf1877977cf369ad9");
        ("critpath-json", "b304d5de6a691565d2edb8b3c0786ccb");
        ("critpath-whatif-json", "c2bb5bf0507c44a95322a41c03011724");
        ("critpath-table", "53504992478df4318b2cbc6f674e1a6b");
      ] );
    ( "md5-2-stall",
      [
        ("chrome", "edb22d5f59a2759493660419e76bc3e5");
        ("sched-json", "43ccdd5bb8f889da366a515ed48c0996");
        ("sched-table", "1e55d63bb45472923b03a1b8a4fe2ee5");
        ("critpath-json", "6558322e34bf0cbfe79feb60048dc55c");
        ("critpath-whatif-json", "55c950dc2ed764deca1d9ac05e4a0ad3");
        ("critpath-table", "5021fee032c165e7e5a4a4a1215c8332");
      ] );
    ( "h263-2",
      [
        ("chrome", "5f4ae041a670350258ec85406a1081f3");
        ("sched-json", "e97a3cc9d9876b6f7b8745a369a7ceb3");
        ("sched-table", "df7f5a075768b608d7b72ebbfe91cde9");
        ("critpath-json", "eb6a0684fec53d9394167f64402d3c89");
        ("critpath-whatif-json", "9609126c05bd613d15fb7036650ff148");
        ("critpath-table", "399dcad8f164451a9056f20a389c1f2e");
      ] );
    ( "md5-4",
      [
        ("chrome", "12a281955a9cc6167ea33940974f875f");
        ("sched-json", "e3a9614a35f0982a144def85a9a33547");
        ("sched-table", "d8fd568da4cc2f3c410f5e20cd71ffb6");
        ("critpath-json", "80f42e20ad3a0a6326b2c22b0b1d7148");
        ("critpath-whatif-json", "e3311729779e3b623fca89869aec2401");
        ("critpath-table", "75d3c9437d380303c77cd2857a9fa0ff");
      ] );
  ]

let golden_case (name, pins) =
  Alcotest.test_case name `Quick (fun () ->
      let got =
        List.map
          (fun (r, s) -> (r, Digest.to_hex (Digest.string s)))
          (renderings (load name))
      in
      Alcotest.(check (list (pair string string)))
        (name ^ ": rendering digests") pins got)

(* --- the three views agree (qcheck) ------------------------------- *)

(* A well-formed recording: every attempt runs the same invocations on
   each domain, each a sequence of chunks (claim, supervised retries
   with backoff, start, finish, maybe a GC sample) and steal probes,
   closed by a merge. One attempt may be poisoned: each domain's stream
   stops between chunks or inside a claim and ends in [Poison] instead
   of [Run_end]. *)
let gen_recording =
  let open QCheck.Gen in
  let chunk lid inv =
    let* c = int_bound 20 in
    let* retries = int_bound 2 in
    let* slept = list_repeat retries (int_bound 500) in
    let* gc = bool in
    let tries =
      List.concat
        (List.mapi
           (fun r ns ->
             [
               (Ring.Heartbeat, lid, c, r + 1);
               (Ring.Backoff, r + 1, 0, ns);
               (Ring.Retry, lid, c, r + 2);
             ])
           slept)
    in
    return
      (((Ring.Chunk_claim, lid, inv, c) :: tries)
      @ [
          (Ring.Heartbeat, lid, c, retries + 1);
          (Ring.Chunk_start, lid, inv, c);
          (Ring.Chunk_finish, lid, inv, c);
        ]
      @ if gc then [ (Ring.Gc_sample, 1, 0, 4096) ] else [])
  in
  let probe =
    let* k = oneofl [ Ring.Steal_stolen; Ring.Steal_empty; Ring.Steal_lost ] in
    let* victim = int_bound 3 in
    let* ns = int_bound 300 in
    return [ [ (k, victim, (if k = Ring.Steal_stolen then 5 else -1), ns) ] ]
  in
  let invocation lid inv =
    let* items =
      list_size (int_bound 4)
        (frequency [ (3, map (fun c -> [ c ]) (chunk lid inv)); (1, probe) ])
    in
    let* bytes = int_bound 4096 in
    return
      (List.concat items
      @ [
          [
            (Ring.Merge_begin, lid, inv, 0); (Ring.Merge_end, lid, inv, bytes);
          ];
        ])
  in
  (* each domain's stream as a list of items: a poison cut falls
     between items, or right after an item's claim *)
  let domain d n att invs =
    let* items =
      flatten_l (List.mapi (fun inv lid -> invocation lid inv) invs)
    in
    return
      ([ [ (Ring.Run_begin, d, n, att) ] ] @ List.concat items)
  in
  let* n = int_range 1 4 in
  let* nattempts = int_range 1 3 in
  let* poisoned = int_bound (2 * nattempts) in
  let* invs = list_size (int_range 1 3) (int_bound 2) in
  let* attempts =
    flatten_l
      (List.init nattempts (fun att ->
           flatten_l
             (List.init n (fun d ->
                  let* items = domain d n att invs in
                  if att <> poisoned then
                    return
                      (List.concat items @ [ (Ring.Run_end, d, 0, 0) ])
                  else
                    let* cut = int_range 1 (List.length items - 1) in
                    let* in_claim = bool in
                    let kept = List.filteri (fun i _ -> i < cut) items in
                    let partial =
                      match List.nth items cut with
                      | ((Ring.Chunk_claim, _, _, _) as claim) :: _
                        when in_claim ->
                        [ claim ]
                      | _ -> []
                    in
                    return
                      (List.concat kept @ partial
                      @ [ (Ring.Poison, d, 0, 0) ])))))
  in
  let* deltas = list_repeat 4096 (int_bound 1000) in
  return (n, attempts, Array.of_list deltas)

let record (_, attempts, deltas) =
  let tr = Domtrace.create ~gc:false () in
  let step = ref 0 in
  let next () =
    incr step;
    deltas.(!step mod Array.length deltas)
  in
  List.iter
    (fun doms ->
      let rings = Domtrace.begin_attempt tr ~domains:(List.length doms) in
      List.iteri
        (fun d events ->
          let ts = ref 0 and vt = ref 0 in
          List.iter
            (fun (k, a, b, c) ->
              ts := !ts + next ();
              vt := !vt + next ();
              Ring.emit rings.(d) k ~ts:!ts ~vt:!vt ~a ~b ~c ())
            events)
        doms)
    attempts;
  tr

let chrome_counts tr =
  let j =
    Telemetry.Json.of_string_exn
      (Telemetry.Chrome_trace.export (Domtrace.to_chrome tr))
  in
  let evs =
    match Telemetry.Json.member "traceEvents" j with
    | Some (Telemetry.Json.List l) -> l
    | _ -> []
  in
  let str k e =
    match Telemetry.Json.member k e with
    | Some (Telemetry.Json.Str s) -> s
    | _ -> ""
  in
  let count p = List.length (List.filter p evs) in
  let prefixed pre s =
    String.length s >= String.length pre
    && String.equal (String.sub s 0 (String.length pre)) pre
  in
  let instant name e = str "ph" e = "i" && str "name" e = name in
  ( count (fun e -> str "ph" e = "B"),
    count (fun e -> str "ph" e = "E"),
    [
      count (fun e -> str "ph" e = "B" && prefixed "chunk " (str "name" e));
      count (instant "steal");
      count (instant "steal-empty");
      count (instant "steal-lost");
    ] )

let sched_counts tr =
  let rep = SR.analyze tr in
  let sum f = Array.fold_left (fun s d -> s + f d) 0 rep.SR.sr_domains in
  [
    sum (fun d -> d.SR.dr_chunks);
    sum (fun d -> d.SR.dr_stolen);
    sum (fun d -> d.SR.dr_steal_empty);
    sum (fun d -> d.SR.dr_steal_lost);
  ]

let critpath_counts tr =
  let j = Critpath.to_json (Critpath.analyze tr) in
  List.map
    (fun k ->
      match Telemetry.Json.member k j with
      | Some (Telemetry.Json.Int i) -> i
      | _ -> -1)
    [ "chunks"; "stolen"; "steal_empty"; "steal_lost" ]

let views_agree =
  QCheck.Test.make ~count:300
    ~name:"chrome, sched report and critpath agree on a recording"
    (QCheck.make
       ~print:(fun (n, attempts, _) ->
         Printf.sprintf "%d domain(s), %d attempt(s), %d event(s)" n
           (List.length attempts)
           (List.fold_left
              (fun s doms ->
                List.fold_left (fun s evs -> s + List.length evs) s doms)
              0 attempts))
       gen_recording)
    (fun r ->
      let tr = record r in
      let b, e, chrome = chrome_counts tr in
      b = e && chrome = sched_counts tr && chrome = critpath_counts tr)

let () =
  Alcotest.run "recordings"
    [
      ("golden", List.map golden_case goldens);
      ("cross-view", [ QCheck_alcotest.to_alcotest views_agree ]);
    ]
