(* Stress-subsystem tests: the heap-integrity sanitizer, the VM's
   resource traps and schedule injector, the ddmin shrinker, and the
   differential driver on the known-hazard corpus. *)

open Gcheap

let fresh () = Heap.create ()

(* --- sanitizer: clean heaps report nothing --------------------------- *)

let test_integrity_fresh () =
  Alcotest.(check int) "fresh heap" 0 (List.length (Heap.check_integrity (fresh ())))

let test_integrity_after_use () =
  let h = fresh () in
  let keep = ref [] in
  for i = 0 to 120 do
    let a = Heap.alloc h (8 + (i mod 60)) in
    if i mod 3 = 0 then keep := a :: !keep
  done;
  ignore (Heap.alloc ~kind:Block.Atomic h 100);
  ignore (Heap.alloc h 5000);
  Alcotest.(check int) "used heap" 0 (List.length (Heap.check_integrity h));
  ignore (Heap.collect ~extra_roots:!keep h);
  Alcotest.(check int) "after collect" 0 (List.length (Heap.check_integrity h));
  ignore (Heap.collect h);
  Alcotest.(check int) "after drop-all" 0 (List.length (Heap.check_integrity h))

(* --- sanitizer: deliberate corruptions are reported ------------------- *)

let block_of h a =
  match Page_map.find h.Heap.map a with
  | Some b -> b
  | None -> Alcotest.fail "address not mapped"

let rules vs = List.map (fun v -> v.Heap.v_rule) vs

let test_detects_stray_mark () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  ignore (Heap.collect h) (* frees [a]; marks are clear *);
  let blk = block_of h a in
  (match Block.slot_of_addr blk a with
  | Some i -> Block.set_marked blk i true
  | None -> Alcotest.fail "no slot");
  Alcotest.(check bool) "mark-bits rule fires" true
    (List.mem "mark-bits" (rules (Heap.check_integrity h)))

let test_detects_allocated_slot_on_free_list () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  let fl =
    Hashtbl.find h.Heap.free_lists (blk.Block.blk_obj_size, blk.Block.blk_kind)
  in
  fl := a :: !fl;
  Alcotest.(check bool) "free-list rule fires" true
    (List.mem "free-list" (rules (Heap.check_integrity h)))

let test_detects_slack_violation () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  (match Block.slot_of_addr blk a with
  | Some i -> blk.Block.blk_req.(i) <- blk.Block.blk_obj_size
  | None -> Alcotest.fail "no slot");
  Alcotest.(check bool) "slack-byte rule fires" true
    (List.mem "slack-byte" (rules (Heap.check_integrity h)))

let test_assert_integrity_raises () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  let fl =
    Hashtbl.find h.Heap.free_lists (blk.Block.blk_obj_size, blk.Block.blk_kind)
  in
  fl := a :: !fl;
  match Heap.assert_integrity h with
  | () -> Alcotest.fail "expected Heap_corruption"
  | exception Heap.Heap_corruption (_ :: _) -> ()
  | exception Heap.Heap_corruption [] ->
      Alcotest.fail "corruption with no violations"

(* --- sanitizer: exact reports ------------------------------------------ *)

(* Each case corrupts one structure and pins the full (rule, detail) list,
   in order, so a faster sanitizer must report the same words. *)

let findings h =
  List.map (fun v -> (v.Heap.v_rule, v.Heap.v_detail)) (Heap.check_integrity h)

let check_findings name expected h =
  Alcotest.(check (list (pair string string))) name expected (findings h)

(* A heap with one live 16-byte object; returns the heap, the object's
   block and that block's free list (the rest of the block's slots). *)
let one_object_heap () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  let fl =
    Hashtbl.find h.Heap.free_lists (blk.Block.blk_obj_size, blk.Block.blk_kind)
  in
  (h, blk, fl)

let test_exact_duplicate_entry () =
  let h, _, fl = one_object_heap () in
  let s = List.hd !fl in
  fl := s :: !fl;
  check_findings "duplicate"
    [ ("free-list", Printf.sprintf "slot %#x appears on a free list twice" s) ]
    h

let test_exact_off_heap_entry () =
  let h, _, fl = one_object_heap () in
  fl := 0x10 :: !fl;
  check_findings "off-heap" [ ("free-list", "entry 0x10 is not on a heap page") ] h

let test_exact_interior_entry () =
  let h, _, fl = one_object_heap () in
  let s = List.hd !fl + 8 in
  (* listed twice: the second sighting is a duplicate, checked off-slot *)
  fl := s :: s :: !fl;
  check_findings "interior"
    [
      ("free-list", Printf.sprintf "entry %#x is not a slot base" s);
      ("free-list", Printf.sprintf "slot %#x appears on a free list twice" s);
      ("free-list", Printf.sprintf "entry %#x is not a slot base" s);
    ]
    h

let test_exact_wrong_class () =
  let h, blk, fl = one_object_heap () in
  let big = block_of h (Heap.alloc h 100) in
  let cls = big.Block.blk_obj_size in
  let other = Hashtbl.find h.Heap.free_lists (cls, Block.Normal) in
  let s = List.hd !fl in
  fl := List.tl !fl;
  other := s :: !other;
  check_findings "wrong class"
    [
      ( "free-list",
        Printf.sprintf
          "entry %#x on the %d-byte list, but its block holds %d-byte objects"
          s cls blk.Block.blk_obj_size );
    ]
    h

let test_exact_nursery_entry () =
  let config = Heap.default_config () in
  config.Heap.generational <- true;
  let h = Heap.create ~config () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  Alcotest.(check bool) "young block" true blk.Block.blk_young;
  (* a slot past the bump cursor, never allocated *)
  let s = Block.slot_addr blk (blk.Block.blk_count - 1) in
  let fl = Heap.free_list h blk.Block.blk_obj_size blk.Block.blk_kind in
  fl := s :: !fl;
  check_findings "nursery page"
    [ ("free-list", Printf.sprintf "entry %#x lies on a nursery page" s) ]
    h

let test_exact_slot_on_no_list () =
  let h, _, fl = one_object_heap () in
  let s = List.hd !fl in
  fl := List.tl !fl;
  check_findings "lost slot"
    [ ("free-list", Printf.sprintf "free slot %#x is on no free list" s) ]
    h

let test_exact_stray_block () =
  let h, _, _ = one_object_heap () in
  let start = Mem.limit h.Heap.mem + (4 * Mem.page_size) in
  Page_map.set_block h.Heap.map
    (Block.make ~start ~pages:2 ~obj_size:(2 * Mem.page_size) ~count:1
       ~kind:Block.Normal);
  check_findings "stray"
    [
      ( "page-map",
        Printf.sprintf "stray block %#x registered in the page map" start );
    ]
    h

let test_exact_stray_over_known_page () =
  (* the stray block covers the second page of a known large block, so
     the mapped-page count still adds up: only the page-map violation
     tells the sanitizer to look for strays *)
  let h = fresh () in
  let large = block_of h (Heap.alloc h 5000) in
  let start = large.Block.blk_start + Mem.page_size in
  Page_map.set_block h.Heap.map
    (Block.make ~start ~pages:1 ~obj_size:Mem.page_size ~count:1
       ~kind:Block.Normal);
  check_findings "stray over a known page"
    [
      ( "page-map",
        Printf.sprintf "page %#x of block %#x maps to block %#x" start
          large.Block.blk_start start );
      ( "page-map",
        Printf.sprintf "stray block %#x registered in the page map" start );
    ]
    h

(* qcheck: integrity holds across arbitrary alloc/collect interleavings *)

let prop_integrity_under_interleavings =
  let op =
    QCheck.(
      oneof
        [
          map (fun n -> `Alloc (1 + (n mod 300))) small_nat;
          always `Collect;
          always `Drop;
        ])
  in
  QCheck.Test.make ~count:60 ~name:"integrity across alloc/collect interleavings"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60) op)
    (fun ops ->
      let h = fresh () in
      let live = ref [] in
      List.iter
        (fun op ->
          (match op with
          | `Alloc n -> live := Heap.alloc h n :: !live
          | `Collect -> ignore (Heap.collect ~extra_roots:!live h)
          | `Drop -> (
              match !live with [] -> () | _ :: rest -> live := rest));
          match Heap.check_integrity h with
          | [] -> ()
          | vs ->
              QCheck.Test.fail_reportf "violations: %s"
                (String.concat "; "
                   (List.map
                      (fun v -> Format.asprintf "%a" Heap.pp_violation v)
                      vs)))
        ops;
      true)

(* --- VM resource ceilings degrade to structured outcomes -------------- *)

let spin_src =
  {|int main(void) { long i; for (i = 0; i < 1000000; i = i + 1) ; return 0; }|}

let test_step_limit () =
  let b = Harness.Build.compile Harness.Build.Base spin_src in
  match
    Harness.Measure.exec (Harness.Request.make ~max_instrs:500 spin_src) b
  with
  | Harness.Measure.Limit m ->
      Alcotest.(check bool) "names the step limit" true
        (String.length m > 0)
  | o -> Alcotest.failf "expected Limit, got %s" (Harness.Measure.describe o)

let test_heap_limit () =
  let b =
    Harness.Build.compile Harness.Build.Base
      {|int main(void) { (void)malloc(5000); return 0; }|}
  in
  match Harness.Measure.exec (Harness.Request.make ~max_heap:1 "") b with
  | Harness.Measure.Limit _ -> ()
  | o -> Alcotest.failf "expected Limit, got %s" (Harness.Measure.describe o)

(* --- schedule bit-sets ------------------------------------------------ *)

let test_schedule_points () =
  let open Machine.Schedule in
  let pts = points_of_list [ 9; 2; 2; 40; -3 ] in
  Alcotest.(check (list int)) "sorted, deduped, negatives dropped" [ 2; 9; 40 ]
    (points_to_list pts);
  Alcotest.(check int) "cardinal" 3 (points_cardinal pts);
  Alcotest.(check bool) "member" true (points_mem pts 9);
  Alcotest.(check bool) "non-member" false (points_mem pts 10);
  Alcotest.(check bool) "past the end" false (points_mem pts 1000)

(* --- the shrinker ----------------------------------------------------- *)

let test_ddmin_single_culprit () =
  let calls = ref 0 in
  let still_fails pts =
    incr calls;
    List.mem 7 pts
  in
  Alcotest.(check (list int)) "isolates 7" [ 7 ]
    (Stress.Shrink.ddmin ~still_fails (List.init 100 (fun i -> i)));
  Alcotest.(check bool) "cheaper than brute force" true (!calls < 100)

let test_ddmin_pair () =
  let still_fails pts = List.mem 3 pts && List.mem 12 pts in
  Alcotest.(check (list int)) "isolates the pair" [ 3; 12 ]
    (Stress.Shrink.ddmin ~still_fails (List.init 40 (fun i -> i)))

let prop_ddmin_exact =
  QCheck.Test.make ~count:100 ~name:"ddmin recovers the exact culprit set"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5) (int_bound 79))
        (list_of_size (Gen.int_range 0 80) (int_bound 79)))
    (fun (culprits, extra) ->
      let culprits = List.sort_uniq compare culprits in
      let universe = List.sort_uniq compare (culprits @ extra) in
      let still_fails pts = List.for_all (fun c -> List.mem c pts) culprits in
      Stress.Shrink.ddmin ~still_fails universe = culprits)

(* --- the driver on the known corpus ----------------------------------- *)

let mx ?(configs = Harness.Build.all_configs) ?(gc_modes = [ Gcheap.Heap.Stw ])
    machines =
  {
    Harness.Request.default_matrix with
    Harness.Request.m_configs = configs;
    Harness.Request.m_machines = machines;
    Harness.Request.m_gc_modes = gc_modes;
  }

let hazard_plan =
  {
    Stress.Driver.default_plan with
    Stress.Driver.p_matrix = mx [ Machine.Machdesc.sparc10 ];
  }

let test_driver_finds_hazard () =
  let findings, _, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
  let base, rest =
    List.partition
      (fun f -> f.Stress.Driver.f_config = Harness.Build.Base)
      findings
  in
  Alcotest.(check bool) "base divergence found" true (base <> []);
  Alcotest.(check int) "safe and debug builds are clean" 0 (List.length rest);
  List.iter
    (fun f ->
      Alcotest.(check bool) "expected (a known hazard)" true
        f.Stress.Driver.f_expected;
      Alcotest.(check int) "shrinks to a single collection point" 1
        (List.length f.Stress.Driver.f_min_points);
      Alcotest.(check bool) "reports the point's context" true
        (f.Stress.Driver.f_contexts <> []))
    base

let test_shrunk_schedule_reproduces () =
  (* the minimized point set, replayed as an explicit schedule, still
     diverges from the uninjected run *)
  let subjects =
    Harness.Differ.build_of_matrix
      (mx ~configs:[ Harness.Build.Base ] [ Machine.Machdesc.sparc10 ])
      Stress.Corpus.hazard.Stress.Corpus.t_source
  in
  let subject = List.hd subjects in
  let reference =
    Harness.Differ.observe ~schedule:Machine.Schedule.Auto subject
  in
  let findings, _, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
  let f = List.hd findings in
  let replay =
    Harness.Differ.observe
      ~schedule:(Machine.Schedule.at_list f.Stress.Driver.f_min_points)
      subject
  in
  match Harness.Differ.diff ~reference replay with
  | Some _ -> ()
  | None -> Alcotest.fail "minimized schedule no longer reproduces"

let test_safe_targets_clean () =
  List.iter
    (fun target ->
      let findings, _, _ = Stress.Driver.run_target hazard_plan target in
      Alcotest.(check int)
        (target.Stress.Corpus.t_name ^ " has no findings")
        0 (List.length findings))
    [ Stress.Corpus.strcopy; Stress.Corpus.interior; Stress.Corpus.churn ]

(* --- collector modes in the differential matrix ----------------------- *)

let check_cells cells =
  List.iter
    (fun c ->
      match c.Harness.Differ.c_mismatch with
      | None -> ()
      | Some m ->
          Alcotest.failf "%s: %s"
            (Harness.Differ.subject_name c.Harness.Differ.c_subject)
            (Harness.Differ.describe_mismatch m))
    cells

let test_gc_mode_matrix_agrees () =
  (* a safe program behaves identically under the stop-the-world and the
     generational collector, under an injected schedule *)
  let src = Stress.Corpus.strcopy.Stress.Corpus.t_source in
  let stw_only =
    Harness.Differ.build_of_matrix (mx [ Machine.Machdesc.sparc10 ]) src
  in
  let subjects =
    Harness.Differ.build_of_matrix
      (mx ~gc_modes:[ Gcheap.Heap.Stw; Gcheap.Heap.Gen ]
         [ Machine.Machdesc.sparc10 ])
      src
  in
  Alcotest.(check int)
    "gc modes multiply subjects, not builds"
    (2 * List.length stw_only)
    (List.length subjects);
  check_cells
    (Harness.Differ.run_matrix ~schedule:(Machine.Schedule.Every 3) subjects)

let has_gen_tag f =
  let s = f.Stress.Driver.f_subject and tag = "[gen]" in
  let n = String.length s and tn = 5 in
  let rec scan i = i + tn <= n && (String.sub s i tn = tag || scan (i + 1)) in
  scan 0

let test_driver_gc_modes_fail_identically () =
  (* the known hazard is a property of the unsafe build, not of the
     collector: the driver finds it under both modes, and the safe and
     debug builds stay clean under both *)
  let plan =
    {
      hazard_plan with
      Stress.Driver.p_matrix =
        mx
          ~gc_modes:[ Gcheap.Heap.Stw; Gcheap.Heap.Gen ]
          [ Machine.Machdesc.sparc10 ];
    }
  in
  let findings, subjects, _ =
    Stress.Driver.run_target plan Stress.Corpus.hazard
  in
  let stw_subjects =
    let _, s, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
    s
  in
  Alcotest.(check int) "both modes scanned" (2 * stw_subjects) subjects;
  let base, rest =
    List.partition
      (fun f -> f.Stress.Driver.f_config = Harness.Build.Base)
      findings
  in
  Alcotest.(check int) "safe and debug builds clean in both modes" 0
    (List.length rest);
  let gen_f, stw_f = List.partition has_gen_tag base in
  Alcotest.(check bool) "hazard found under stw" true (stw_f <> []);
  Alcotest.(check bool) "hazard found under gen" true (gen_f <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "expected (a known hazard)" true
        f.Stress.Driver.f_expected)
    base

let test_run_matrix_agrees () =
  let subjects =
    Harness.Differ.build_of_matrix
      (mx [ Machine.Machdesc.sparc10 ])
      Stress.Corpus.strcopy.Stress.Corpus.t_source
  in
  let cells =
    Harness.Differ.run_matrix ~schedule:(Machine.Schedule.Every 3) subjects
  in
  List.iter
    (fun c ->
      match c.Harness.Differ.c_mismatch with
      | None -> ()
      | Some m ->
          Alcotest.failf "%s: %s"
            (Harness.Differ.subject_name c.Harness.Differ.c_subject)
            (Harness.Differ.describe_mismatch m))
    cells

let suite =
  [
    Alcotest.test_case "integrity: fresh heap" `Quick test_integrity_fresh;
    Alcotest.test_case "integrity: used heap" `Quick test_integrity_after_use;
    Alcotest.test_case "integrity: stray mark bit" `Quick test_detects_stray_mark;
    Alcotest.test_case "integrity: allocated slot on free list" `Quick
      test_detects_allocated_slot_on_free_list;
    Alcotest.test_case "integrity: slack-byte violation" `Quick
      test_detects_slack_violation;
    Alcotest.test_case "integrity: assert raises" `Quick
      test_assert_integrity_raises;
    Alcotest.test_case "integrity exact: duplicate entry" `Quick
      test_exact_duplicate_entry;
    Alcotest.test_case "integrity exact: off-heap entry" `Quick
      test_exact_off_heap_entry;
    Alcotest.test_case "integrity exact: interior entry" `Quick
      test_exact_interior_entry;
    Alcotest.test_case "integrity exact: wrong size class" `Quick
      test_exact_wrong_class;
    Alcotest.test_case "integrity exact: nursery-page entry" `Quick
      test_exact_nursery_entry;
    Alcotest.test_case "integrity exact: free slot on no list" `Quick
      test_exact_slot_on_no_list;
    Alcotest.test_case "integrity exact: stray block" `Quick
      test_exact_stray_block;
    Alcotest.test_case "integrity exact: stray over a known page" `Quick
      test_exact_stray_over_known_page;
    QCheck_alcotest.to_alcotest prop_integrity_under_interleavings;
    Alcotest.test_case "vm: step ceiling" `Quick test_step_limit;
    Alcotest.test_case "vm: heap ceiling" `Quick test_heap_limit;
    Alcotest.test_case "schedule: point sets" `Quick test_schedule_points;
    Alcotest.test_case "shrink: single culprit" `Quick test_ddmin_single_culprit;
    Alcotest.test_case "shrink: culprit pair" `Quick test_ddmin_pair;
    QCheck_alcotest.to_alcotest prop_ddmin_exact;
    Alcotest.test_case "driver: finds the hazard" `Quick test_driver_finds_hazard;
    Alcotest.test_case "driver: shrunk schedule reproduces" `Quick
      test_shrunk_schedule_reproduces;
    Alcotest.test_case "driver: safe targets are clean" `Quick
      test_safe_targets_clean;
    Alcotest.test_case "differ: matrix agreement" `Quick test_run_matrix_agrees;
    Alcotest.test_case "differ: gc modes agree on safe code" `Quick
      test_gc_mode_matrix_agrees;
    Alcotest.test_case "driver: gc modes fail identically" `Quick
      test_driver_gc_modes_fail_identically;
  ]
