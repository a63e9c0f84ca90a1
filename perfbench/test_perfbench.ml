(* Checks of the benchmark's own inputs and arithmetic: a seed names its
   inputs byte for byte, and span self time is the span's length minus
   what its children cover. *)

open Perfbench

let workloads = [ "paper-run"; "gc-stress"; "build-cold"; "service-mix" ]

let digest w s = Option.get (Inputs.digest ~workload:w ~seed:s)

let seed_cases =
  List.concat_map
    (fun w ->
      [
        Alcotest.test_case (w ^ ": same seed, same input digest") `Quick (fun () ->
            Alcotest.(check string) "digest" (digest w 1) (digest w 1));
        Alcotest.test_case (w ^ ": other seed, other input digest") `Quick (fun () ->
            Alcotest.(check bool) "differs" true (digest w 1 <> digest w 2));
      ])
    workloads
  @ [
      Alcotest.test_case "unknown workload has no inputs" `Quick (fun () ->
          Alcotest.(check bool) "none" true (Inputs.digest ~workload:"nope" ~seed:1 = None));
    ]

let secs = Alcotest.float 1e-9

let self_time_cases =
  let st = Span.self_time in
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "no children: the span's length" (fun () ->
        Alcotest.check secs "self" 2. (st (1., 3.) []));
    case "disjoint children are subtracted" (fun () ->
        Alcotest.check secs "self" 6. (st (0., 10.) [ (1., 2.); (4., 7.) ]));
    case "overlapping children count once" (fun () ->
        Alcotest.check secs "self" 5. (st (0., 10.) [ (1., 5.); (3., 6.) ]));
    case "children are clipped to the parent" (fun () ->
        Alcotest.check secs "self" 0.5 (st (2., 4.) [ (0., 3.); (3.5, 9.) ]));
    case "per-name totals: parent minus covered child time" (fun () ->
        let open Span in
        let spans =
          [
            { id = 1; parent = 0; name = "child"; t0 = 1.; t1 = 3. };
            { id = 2; parent = 0; name = "child"; t0 = 4.; t1 = 5. };
            { id = 3; parent = 2; name = "leaf"; t0 = 4.25; t1 = 4.5 };
            { id = 0; parent = -1; name = "root"; t0 = 0.; t1 = 10. };
          ]
        in
        let selfs = self_times spans in
        let self n = List.find_map (fun (m, s, k) -> if m = n then Some (s, k) else None) selfs in
        Alcotest.check secs "root" 7. (fst (Option.get (self "root")));
        Alcotest.check secs "child" 2.75 (fst (Option.get (self "child")));
        Alcotest.(check int) "child spans" 2 (snd (Option.get (self "child")));
        Alcotest.check secs "partition" 10.
          (List.fold_left (fun a (_, s, _) -> a +. s) 0. selfs));
    case "recorder nests spans" (fun () ->
        let r = Span.create () in
        let x =
          Span.with_span (Some r) "a" (fun () -> Span.with_span (Some r) "b" (fun () -> 42))
        in
        Alcotest.(check int) "result" 42 x;
        match Span.spans r with
        | [ b; a ] ->
            Alcotest.(check (list string)) "names" [ "b"; "a" ] [ b.Span.name; a.Span.name ];
            Alcotest.(check int) "b's parent" a.Span.id b.Span.parent;
            Alcotest.(check int) "a is a root" (-1) a.Span.parent
        | _ -> Alcotest.fail "expected two spans");
  ]

let () =
  Alcotest.run "perfbench"
    [ ("perfbench seeds", seed_cases); ("perfbench spans", self_time_cases) ]
