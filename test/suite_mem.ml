(* Memory arena unit tests: endianness, sign extension, bounds, strings. *)

open Gcheap

let fresh_with_page () =
  let m = Mem.create () in
  let a = Mem.grow_pages m 1 in
  (m, a)

let test_widths_roundtrip () =
  let m, a = fresh_with_page () in
  List.iter
    (fun (w, v) ->
      Mem.store m ~width:w a v;
      Alcotest.(check int) (Printf.sprintf "width %d" w) v (Mem.load m ~width:w a))
    [ (1, 42); (1, -1); (2, -12345); (4, 1 lsl 30); (8, 1 lsl 55); (8, -(1 lsl 55)) ]

let test_sign_extension () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:1 a 0xFF;
  Alcotest.(check int) "byte 0xFF loads as -1" (-1) (Mem.load m ~width:1 a);
  Mem.store m ~width:2 a 0x8000;
  Alcotest.(check int) "short 0x8000 loads as -32768" (-32768)
    (Mem.load m ~width:2 a);
  Mem.store m ~width:4 a 0x80000000;
  Alcotest.(check int) "int 0x80000000 negative" (-2147483648)
    (Mem.load m ~width:4 a)

let test_little_endian () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:4 a 0x11223344;
  Alcotest.(check int) "low byte first" 0x44 (Mem.load m ~width:1 a);
  Alcotest.(check int) "high byte last" 0x11 (Mem.load m ~width:1 (a + 3))

let test_truncation () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:1 a 300;
  Alcotest.(check int) "300 truncates to 44" 44 (Mem.load m ~width:1 a)

let test_bounds () =
  let m, a = fresh_with_page () in
  let expect_fault f =
    match f () with
    | exception Mem.Fault _ -> ()
    | _ -> Alcotest.fail "expected Mem.Fault"
  in
  expect_fault (fun () -> Mem.load m ~width:8 0);
  expect_fault (fun () -> Mem.load m ~width:8 (Mem.limit m - 4));
  expect_fault (fun () -> Mem.store m ~width:1 (-1) 0);
  (* the last valid byte is fine *)
  Mem.store m ~width:1 (Mem.limit m - 1) 7;
  Alcotest.(check int) "last byte" 7 (Mem.load m ~width:1 (Mem.limit m - 1));
  ignore a

let test_growth () =
  let m = Mem.create () in
  let first = Mem.grow_pages m 1 in
  let big = Mem.grow_pages m 1000 in
  Alcotest.(check bool) "disjoint" true (big >= first + Mem.page_size);
  Mem.store_word m (big + (999 * Mem.page_size)) 99;
  Alcotest.(check int) "far page usable" 99
    (Mem.load_word m (big + (999 * Mem.page_size)))

let test_fill_blit () =
  let m, a = fresh_with_page () in
  Mem.fill m a 16 'x';
  Alcotest.(check int) "filled" (Char.code 'x') (Mem.load m ~width:1 (a + 15));
  Mem.blit m ~src:a ~dst:(a + 32) 16;
  Alcotest.(check int) "blitted" (Char.code 'x')
    (Mem.load m ~width:1 (a + 47))

let test_cstrings () =
  let m, a = fresh_with_page () in
  Mem.store_cstring m a "hello";
  Alcotest.(check string) "round trip" "hello" (Mem.load_cstring m a);
  Alcotest.(check int) "terminator" 0 (Mem.load m ~width:1 (a + 5));
  Mem.store_cstring m a "";
  Alcotest.(check string) "empty" "" (Mem.load_cstring m a)

(* --- arena recycling ------------------------------------------------- *)

let expect_fault what f =
  match f () with
  | exception Mem.Fault _ -> ()
  | _ -> Alcotest.failf "%s: expected Mem.Fault" what

let test_release_recycles_zeroed () =
  (* a fresh domain has no spare parked yet *)
  Domain.join
  @@ Domain.spawn (fun () ->
         let m = Mem.create () in
         let a = Mem.grow_pages m 200 in
         Mem.fill m a (200 * Mem.page_size) '\xAB';
         let cap = Mem.capacity m in
         Mem.release m;
         let m2 = Mem.create () in
         Alcotest.(check int) "the spare is taken" cap (Mem.capacity m2);
         Alcotest.(check int) "growth starts past the null page" Mem.page_size
           (Mem.grow_pages m2 ((cap / Mem.page_size) - 1));
         Alcotest.(check int) "grown to capacity" cap (Mem.limit m2);
         let a = ref Mem.page_size in
         while !a < cap do
           if Mem.load_word m2 !a <> 0 then
             Alcotest.failf "byte at %#x survived release" !a;
           a := !a + 8
         done;
         Alcotest.(check int) "no second spare" (64 * Mem.page_size)
           (Mem.capacity (Mem.create ())))

let test_released_arena_faults () =
  let m = Mem.create () in
  let a = Mem.grow_pages m 100 in
  let cap = Mem.capacity m in
  Mem.store_word m a 7;
  Mem.release m;
  Alcotest.(check int) "no limit left" 0 (Mem.limit m);
  expect_fault "load" (fun () -> Mem.load_word m a);
  expect_fault "store" (fun () -> Mem.store_word m a 1);
  expect_fault "fill" (fun () -> Mem.fill m a 8 'x');
  expect_fault "blit" (fun () -> Mem.blit m ~src:a ~dst:(a + 8) 8);
  expect_fault "C string" (fun () -> Mem.load_cstring m a);
  expect_fault "growth" (fun () -> Mem.grow_pages m 1);
  (* releasing again must not replace the spare with the empty buffer *)
  Mem.release m;
  Alcotest.(check int) "spare kept" cap (Mem.capacity (Mem.create ()))

let prop_word_roundtrip =
  QCheck.Test.make ~count:200 ~name:"word store/load round trip"
    QCheck.(int_range (-(1 lsl 60)) (1 lsl 60))
    (fun v ->
      let m, a = fresh_with_page () in
      Mem.store_word m a v;
      Mem.load_word m a = v)

let suite =
  [
    Alcotest.test_case "width round trips" `Quick test_widths_roundtrip;
    Alcotest.test_case "sign extension" `Quick test_sign_extension;
    Alcotest.test_case "little endian" `Quick test_little_endian;
    Alcotest.test_case "narrow truncation" `Quick test_truncation;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "fill and blit" `Quick test_fill_blit;
    Alcotest.test_case "C strings" `Quick test_cstrings;
    Alcotest.test_case "release recycles a zeroed arena" `Quick
      test_release_recycles_zeroed;
    Alcotest.test_case "released arena faults" `Quick
      test_released_arena_faults;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
  ]
