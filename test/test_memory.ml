(* Unit tests for the interpreter's flat memory: allocator behaviour,
   fixed-width accessors, bounds checking, peak accounting, and a
   qcheck law relating stores and loads. *)

let alloc_tests =
  [
    Alcotest.test_case "distinct allocations don't overlap" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 100 in
        let b = Interp.Memory.alloc m 100 in
        Alcotest.(check bool) "disjoint" true (abs (a - b) >= 100));
    Alcotest.test_case "free then alloc reuses the bucket" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 64 in
        Interp.Memory.free m a;
        let b = Interp.Memory.alloc m 64 in
        Alcotest.(check int) "same base" a b);
    Alcotest.test_case "reused block is zeroed" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 16 in
        Interp.Memory.store m a 8 0x1122334455667788L;
        Interp.Memory.free m a;
        let b = Interp.Memory.alloc m 16 in
        Alcotest.(check int64) "zeroed" 0L (Interp.Memory.load m b 8));
    Alcotest.test_case "released arena is reused zeroed" `Quick (fun () ->
        let m = Interp.Memory.create ~initial:4096 () in
        let a = Interp.Memory.alloc m 16 in
        Interp.Memory.store m a 8 0x1122334455667788L;
        Interp.Memory.release m;
        Alcotest.check_raises "released memory faults"
          (Interp.Memory.Fault
             (Printf.sprintf
                "out-of-bounds access: address %d, size 8 (arena ends at 0)" a))
          (fun () -> ignore (Interp.Memory.load m a 8));
        let m' = Interp.Memory.create ~initial:4096 () in
        let b = Interp.Memory.alloc m' 16 in
        Alcotest.(check int) "same base" a b;
        Alcotest.(check int64) "zeroed" 0L (Interp.Memory.load m' b 8));
    Alcotest.test_case "block_size" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 100 in
        Alcotest.(check int) "size kept" 100 (Interp.Memory.block_size m a));
    Alcotest.test_case "free of null is a no-op" `Quick (fun () ->
        let m = Interp.Memory.create () in
        Interp.Memory.free m 0);
    Alcotest.test_case "peak tracks live bytes" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 1000 in
        let peak1 = Interp.Memory.peak_bytes m in
        Interp.Memory.free m a;
        let b = Interp.Memory.alloc m 1000 in
        Interp.Memory.free m b;
        Alcotest.(check int) "no growth on reuse" peak1
          (Interp.Memory.peak_bytes m);
        Alcotest.(check bool) "live below peak" true
          (Interp.Memory.live_bytes m < peak1));
    Alcotest.test_case "untracked allocation skips accounting" `Quick
      (fun () ->
        let m = Interp.Memory.create () in
        let live0 = Interp.Memory.live_bytes m in
        ignore (Interp.Memory.alloc ~track:false m 4096);
        Alcotest.(check int) "live unchanged" live0
          (Interp.Memory.live_bytes m));
    Alcotest.test_case "low addresses fault" `Quick (fun () ->
        let m = Interp.Memory.create () in
        match Interp.Memory.load m 4 4 with
        | exception Interp.Memory.Fault _ -> ()
        | _ -> Alcotest.fail "expected a fault");
    Alcotest.test_case "past-the-end faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 8 in
        match Interp.Memory.load m (a + 1_000_000) 4 with
        | exception Interp.Memory.Fault _ -> ()
        | _ -> Alcotest.fail "expected a fault");
  ]

let accessor_tests =
  [
    Alcotest.test_case "sign extension per width" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 8 in
        Interp.Memory.store m a 1 0xFFL;
        Alcotest.(check int64) "byte -1" (-1L) (Interp.Memory.load m a 1);
        Interp.Memory.store m a 2 0x8000L;
        Alcotest.(check int64) "short min" (-32768L) (Interp.Memory.load m a 2);
        Interp.Memory.store m a 4 0xFFFFFFFFL;
        Alcotest.(check int64) "int -1" (-1L) (Interp.Memory.load m a 4));
    Alcotest.test_case "little-endian layout" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 8 in
        Interp.Memory.store m a 4 0x04030201L;
        Alcotest.(check int64) "first byte" 1L (Interp.Memory.load m a 1);
        Alcotest.(check int64) "fourth byte" 4L (Interp.Memory.load m (a + 3) 1));
    Alcotest.test_case "float roundtrip both widths" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 16 in
        let roundtrip addr width v =
          Interp.Memory.store_float_cell m addr width { Interp.Memory.fv = v };
          let c = { Interp.Memory.fv = Float.nan } in
          Interp.Memory.load_float_cell m addr width c;
          c.Interp.Memory.fv
        in
        Alcotest.(check (float 0.0)) "double exact" 3.14159265358979
          (roundtrip a 8 3.14159265358979);
        Alcotest.(check (float 0.0)) "float32 exact for 1.5" 1.5
          (roundtrip (a + 8) 4 1.5);
        Alcotest.(check (float 0.0)) "float32 rounds 0.1" 0.100000001490116119
          (roundtrip (a + 8) 4 0.1));
    Alcotest.test_case "read_string" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 8 in
        Interp.Memory.store m a 8 0x0041_4243_0044_4546L;
        Alcotest.(check string) "bytes in address order" "FED\000CBA\000"
          (Interp.Memory.read_string m a 8);
        Alcotest.(check string) "empty" "" (Interp.Memory.read_string m a 0);
        match Interp.Memory.read_string m a 1_000_000 with
        | exception Interp.Memory.Fault _ -> ()
        | _ -> Alcotest.fail "expected a fault past the arena");
    Alcotest.test_case "cstring roundtrip" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.write_cstring m "hello world" in
        Alcotest.(check string) "read back" "hello world"
          (Interp.Memory.read_cstring m a));
    Alcotest.test_case "blit and fill" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 16 in
        let b = Interp.Memory.alloc m 16 in
        Interp.Memory.fill m ~dst:a ~len:16 0xAB;
        Interp.Memory.blit m ~src:a ~dst:b ~len:16;
        Alcotest.(check int64) "copied byte"
          (Interp.Memory.load m a 1)
          (Interp.Memory.load m b 1));
  ]

(* The fault paths: invalid accesses must raise Memory.Fault (never
   corrupt the arena silently), and the injected-allocation-failure
   knob must fire on exactly the armed allocation. *)
let expect_fault name f =
  match f () with
  | exception Interp.Memory.Fault _ -> ()
  | _ -> Alcotest.fail ("expected a fault: " ^ name)

let fault_tests =
  [
    Alcotest.test_case "out-of-bounds store faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 8 in
        expect_fault "store past the arena" (fun () ->
            Interp.Memory.store m (a + 1_000_000) 4 1L));
    Alcotest.test_case "double free faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 32 in
        Interp.Memory.free m a;
        expect_fault "second free" (fun () -> Interp.Memory.free m a));
    Alcotest.test_case "null dereference faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        expect_fault "load *0" (fun () -> Interp.Memory.load m 0 8);
        expect_fault "store *0" (fun () -> Interp.Memory.store m 0 4 7L));
    Alcotest.test_case "sub-base_address access faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        expect_fault "load below base" (fun () ->
            Interp.Memory.load m (Interp.Memory.base_address - 4) 4);
        expect_fault "store below base" (fun () ->
            Interp.Memory.store m (Interp.Memory.base_address - 1) 1 1L));
    Alcotest.test_case "free of non-base address faults" `Quick (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 32 in
        expect_fault "free of interior pointer" (fun () ->
            Interp.Memory.free m (a + 8)));
    Alcotest.test_case "alloc fault fires on the n-th allocation" `Quick
      (fun () ->
        let m = Interp.Memory.create () in
        Interp.Memory.set_alloc_fault m 3;
        ignore (Interp.Memory.alloc m 8);
        ignore (Interp.Memory.alloc m 8);
        expect_fault "third allocation" (fun () -> Interp.Memory.alloc m 8);
        (* the knob disarms itself after firing *)
        ignore (Interp.Memory.alloc m 8));
    Alcotest.test_case "untracked allocations don't consume the countdown"
      `Quick (fun () ->
        let m = Interp.Memory.create () in
        Interp.Memory.set_alloc_fault m 1;
        ignore (Interp.Memory.alloc ~track:false m 64);
        expect_fault "first tracked allocation" (fun () ->
            Interp.Memory.alloc m 8));
    Alcotest.test_case "clear_alloc_fault disarms" `Quick (fun () ->
        let m = Interp.Memory.create () in
        Interp.Memory.set_alloc_fault m 1;
        Interp.Memory.clear_alloc_fault m;
        ignore (Interp.Memory.alloc m 8));
    Alcotest.test_case "set_alloc_fault rejects n < 1" `Quick (fun () ->
        let m = Interp.Memory.create () in
        match Interp.Memory.set_alloc_fault m 0 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "find_block locates the containing allocation" `Quick
      (fun () ->
        let m = Interp.Memory.create () in
        let a = Interp.Memory.alloc m 40 in
        (match Interp.Memory.find_block m (a + 17) with
        | Some (base, size) ->
          Alcotest.(check int) "base" a base;
          Alcotest.(check int) "size" 40 size
        | None -> Alcotest.fail "block not found");
        Alcotest.(check bool) "past the end is outside" true
          (match Interp.Memory.find_block m (a + 40) with
          | Some (base, _) -> base <> a
          | None -> true);
        Interp.Memory.free m a;
        Alcotest.(check bool) "freed block is gone" true
          (Interp.Memory.find_block m (a + 17) = None));
  ]

(* store/load roundtrip law over random values and widths, for the
   int64 and the immediate-int accessors: [load_int] faults on an
   8-byte value that does not fit in 63 bits *)
let roundtrip_law =
  QCheck.Test.make ~count:300 ~name:"store/load roundtrip with truncation"
    QCheck.(pair int64 (oneofl [ 1; 2; 4; 8 ]))
    (fun (v, width) ->
      let m = Interp.Memory.create () in
      let a = Interp.Memory.alloc m 8 in
      Interp.Memory.store m a width v;
      let back = Interp.Memory.load m a width in
      let bits = width * 8 in
      let expected =
        if bits = 64 then v
        else Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits)
      in
      let fits = Int64.equal (Int64.of_int (Int64.to_int expected)) expected in
      let back_int =
        match Interp.Memory.load_int m a width with
        | i -> Some i
        | exception Interp.Memory.Fault _ -> None
      in
      Interp.Memory.store_int m a width (Int64.to_int v);
      let back_stored = Interp.Memory.load m a width in
      Int64.equal back expected
      && back_int = (if fits then Some (Int64.to_int expected) else None)
      && Int64.equal back_stored
           (if bits = 64 then Int64.of_int (Int64.to_int v) else expected))

let () =
  Alcotest.run "memory"
    [
      ("allocator", alloc_tests);
      ("accessors", accessor_tests);
      ("faults", fault_tests);
      ("laws", [ QCheck_alcotest.to_alcotest roundtrip_law ]);
    ]
