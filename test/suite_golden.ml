(* Golden VM counters: the deterministic figures every run of the paper
   suite produced before the VM's code representation changed.  Any
   rewrite of the interpreter must reproduce them exactly — steps,
   cycles, collections, pause words and output bytes — so this table,
   not a kept copy of an older interpreter, is what proves an execution
   model change is semantically invisible.  To regenerate after an
   intended semantic change, run the suite: a mismatch prints the
   measured row in the table's own syntax. *)

module B = Harness.Build
module M = Harness.Measure

type row = {
  g_cell : string;  (** program/config/gc-mode *)
  g_instrs : int;
  g_cycles : int;
  g_gc_count : int;
  g_max_pause_words : int;
  g_output : string;  (** md5 of the output, or a stopped run's diagnostic *)
}

let cells =
  let shapes =
    Gcheap.Heap.
      [
        (B.Base, Stw);
        (B.Safe, Stw);
        (B.Debug_checked, Stw);
        (B.Safe_peephole, Stw);
        (B.Safe, Gen);
        (B.Safe, Inc);
      ]
  in
  List.concat_map
    (fun (w : Workloads.Registry.workload) ->
      List.map (fun (config, mode) -> (w, config, mode)) shapes)
    Workloads.Registry.paper_suite

let cell_name (w : Workloads.Registry.workload) config mode =
  Printf.sprintf "%s/%s/%s" w.Workloads.Registry.w_name (B.config_id config)
    (Gcheap.Heap.gc_mode_name mode)

let measure (w : Workloads.Registry.workload) config mode =
  let req =
    Harness.Request.make ~config ~machine:Machine.Machdesc.sparc10
      ~gc_mode:mode w.Workloads.Registry.w_source
  in
  let built =
    B.compile ~options:(Harness.Request.build_options req) config
      w.Workloads.Registry.w_source
  in
  match M.exec req built with
  | M.Ran r ->
      {
        g_cell = cell_name w config mode;
        g_instrs = r.M.o_instrs;
        g_cycles = r.M.o_cycles;
        g_gc_count = r.M.o_gc_count;
        g_max_pause_words = r.M.o_gc_max_pause_words;
        g_output = Digest.to_hex (Digest.string r.M.o_output);
      }
  | o ->
      (* a stopped run pins its diagnostic in place of the output *)
      {
        g_cell = cell_name w config mode;
        g_instrs = -1;
        g_cycles = -1;
        g_gc_count = -1;
        g_max_pause_words = -1;
        g_output = M.describe o;
      }

let pp_row r =
  Printf.sprintf "  (%S, %d, %d, %d, %d, %S);" r.g_cell r.g_instrs r.g_cycles
    r.g_gc_count r.g_max_pause_words r.g_output

(* (cell, instrs, cycles, gc count, max pause words, output md5 or
   diagnostic) *)
let golden : (string * int * int * int * int * string) list =
  [
    ("cordtest/base/stw", 12105257, 20346571, 1, 8, "0062b824f132386eec83632b426bf430");
    ("cordtest/safe/stw", 19344682, 24797653, 1, 8, "0062b824f132386eec83632b426bf430");
    ("cordtest/checked/stw", 36794211, 112783736, 1, 32, "0062b824f132386eec83632b426bf430");
    ("cordtest/safe-peep/stw", 14920568, 20373539, 1, 8, "0062b824f132386eec83632b426bf430");
    ("cordtest/safe/gen", 19344682, 24797653, 6, 3501, "0062b824f132386eec83632b426bf430");
    ("cordtest/safe/inc", 19344682, 24797653, 1, 264, "0062b824f132386eec83632b426bf430");
    ("cfrac/base/stw", 1002515, 3004056, 2, 32906, "104a4ad0f424232eecc23dc065a584ac");
    ("cfrac/safe/stw", 1248500, 3163799, 2, 32906, "104a4ad0f424232eecc23dc065a584ac");
    ("cfrac/checked/stw", 2309721, 6966638, 2, 32942, "104a4ad0f424232eecc23dc065a584ac");
    ("cfrac/safe-peep/stw", 1150706, 3066005, 2, 32906, "104a4ad0f424232eecc23dc065a584ac");
    ("cfrac/safe/gen", 1248500, 3163799, 17, 3232, "104a4ad0f424232eecc23dc065a584ac");
    ("cfrac/safe/inc", 1248500, 3163799, 2, 1024, "104a4ad0f424232eecc23dc065a584ac");
    ("gawk/base/stw", 524062, 1023692, 1, 128, "b1273e4281d5fa3cd21e944a9dfcd6c2");
    ("gawk/safe/stw", 592023, 1081065, 1, 128, "b1273e4281d5fa3cd21e944a9dfcd6c2");
    ("gawk/checked/stw", -1, -1, -1, -1, "detected: GC_same_obj: 0x42ff8 escapes object [0x43000,+144) (derived from 0x43000)");
    ("gawk/safe-peep/stw", 566791, 1055833, 1, 128, "b1273e4281d5fa3cd21e944a9dfcd6c2");
    ("gawk/safe/gen", 592023, 1081065, 3, 4226, "b1273e4281d5fa3cd21e944a9dfcd6c2");
    ("gawk/safe/inc", 592023, 1081065, 1, 192, "b1273e4281d5fa3cd21e944a9dfcd6c2");
    ("gs/base/stw", 1170452, 2233527, 1, 2048, "82b1d83aecaa77a81b32461490af8439");
    ("gs/safe/stw", 1446838, 2501895, 1, 2048, "82b1d83aecaa77a81b32461490af8439");
    ("gs/checked/stw", 2411279, 5998976, 1, 2052, "82b1d83aecaa77a81b32461490af8439");
    ("gs/safe-peep/stw", 1434338, 2489395, 1, 2048, "82b1d83aecaa77a81b32461490af8439");
    ("gs/safe/gen", 1446838, 2501895, 7, 6157, "82b1d83aecaa77a81b32461490af8439");
    ("gs/safe/inc", 1446838, 2501895, 1, 1088, "82b1d83aecaa77a81b32461490af8439");
  ]

let test_paper_counters () =
  let rows = List.map (fun (w, c, m) -> measure w c m) cells in
  let expected =
    List.map
      (fun (cell, i, c, g, p, d) ->
        pp_row
          {
            g_cell = cell;
            g_instrs = i;
            g_cycles = c;
            g_gc_count = g;
            g_max_pause_words = p;
            g_output = d;
          })
      golden
  in
  let actual = List.map pp_row rows in
  if actual <> expected then
    Alcotest.failf "golden counters moved; measured:\n%s"
      (String.concat "\n" actual)

(* The program-location strings of forced collections: they name the
   function, block and last executed instruction at each fired
   safepoint, so they pin where the VM stands between steps.  The safe
   hazard build under [Every 1] crosses a call, a builtin and a return;
   strcopy under [Every 29] crosses branches and block entries. *)
let forced_points name n =
  let t = Option.get (Stress.Corpus.by_name name) in
  let src = t.Stress.Corpus.t_source in
  let req =
    Harness.Request.make ~config:B.Safe ~machine:Machine.Machdesc.sparc10
      ~schedule:(Machine.Schedule.Every n) src
  in
  let built = B.compile ~options:(Harness.Request.build_options req) B.Safe src in
  match M.exec req built with
  | M.Ran r -> r.M.o_gc_points
  | o -> Alcotest.failf "%s under Every %d: %s" name n (M.describe o)

let golden_points : (string * int * (int * string) list) list =
  [
    ( "hazard",
      1,
      [
        (1, "main, L0, after push  100005");
        (2, "f, L0, block entry");
        (3, "f, L0, after mov   r1, r2");
        (4, "f, L0, after push  10");
        (5, "f, L0, after call  r2, malloc/1");
        (6, "f, L0, after add   r3, r2, 5");
        (7, "f, L0, after stb   42, [r3 + 0]");
        (8, "f, L0, after sub   r1, r1, 100000");
        (9, "f, L0, after add   r3, r2, r1");
        (10, "f, L0, after keep  r2");
        (11, "f, L0, after ldb   r1, [r3 + 0]");
        (12, "main, L0, after call  r1, f/1");
        (13, "main, L0, after push  @0");
        (14, "main, L0, after push  r1");
        (15, "main, L0, after call  r1, printf/2");
      ] );
    ( "strcopy",
      29,
      [
        (29, "main, L2, after add   r3, r3, 1");
        (58, "main, L2, after mod   r5, r3, 26");
        (87, "main, L1, after setlt r4, r3, 23");
        (116, "main, L2, after stb   r6, [r4 + 0]");
        (145, "main, L2, after add   r4, r1, r3");
        (174, "main, L1, block entry");
        (203, "main, L6, after ldb   r6, [r5 + 0]");
        (232, "main, L6, after add   r5, r1, r3");
        (261, "main, L6, after add   r4, r2, r3");
        (290, "main, L6, block entry");
        (319, "main, L5, after setne r4, r5, 0");
        (348, "main, L5, after ldb   r5, [r4 + 0]");
        (377, "main, L5, after add   r4, r1, r3");
        (406, "main, L5, block entry");
        (435, "main, L8, after call  r1, printf/2");
      ] );
  ]

let test_forced_points () =
  List.iter
    (fun (name, n, expected) ->
      let actual = forced_points name n in
      if actual <> expected then
        Alcotest.failf "%s: forced collection points moved; measured:\n%s" name
          (String.concat "\n"
             (List.map (fun (i, s) -> Printf.sprintf "  (%d, %S);" i s) actual)))
    golden_points

(* The VM's share of a metrics registry after one run — every counter,
   gauge and histogram except the wall-clock [_ns] ones, which no two
   runs share — plus a digest of the run's allocation-site profile. *)
let vm_metrics name config mode =
  let w = Option.get (Workloads.Registry.by_name name) in
  let src = w.Workloads.Registry.w_source in
  let req =
    Harness.Request.make ~config ~machine:Machine.Machdesc.sparc10
      ~gc_mode:mode src
  in
  let built = B.compile ~options:(Harness.Request.build_options req) config src in
  let profiler = Telemetry.Heap_profiler.create () in
  let sink = Telemetry.Sink.make ~profiler () in
  ignore (M.exec ~telemetry:sink req built);
  let profile =
    Telemetry.Json.to_string
      (Telemetry.Heap_profiler.to_json (Telemetry.Heap_profiler.report profiler))
  in
  let snap = Telemetry.Metrics.snapshot sink.Telemetry.Sink.metrics in
  List.filter_map
    (fun (n, v) ->
      if String.ends_with ~suffix:"_ns" n then None
      else
        match Telemetry.Metrics.to_json [ (n, v) ] with
        | Telemetry.Json.Obj [ (_, j) ] -> Some (n, Telemetry.Json.to_string j)
        | _ -> assert false)
    snap
  @ [ ("heap profile md5", Digest.to_hex (Digest.string profile)) ]

let golden_metrics =
  [
    ("vm/alloc/bytes", "{\"count\":20972,\"sum\":312913,\"max\":62,\"mean\":14.920513065039099,\"p50\":31,\"p90\":31,\"p99\":31}");
    ("vm/dispatch/alu", "353658");
    ("vm/dispatch/branch", "238549");
    ("vm/dispatch/call", "54573");
    ("vm/dispatch/keep_live", "86242");
    ("vm/dispatch/load", "165116");
    ("vm/dispatch/mov", "75155");
    ("vm/dispatch/push", "70738");
    ("vm/dispatch/rel", "120345");
    ("vm/dispatch/store", "84124");
    ("vm/faults", "0");
    ("vm/gc/bytes_freed", "309062");
    ("vm/gc/cards_scanned", "37");
    ("vm/gc/collections", "17");
    ("vm/gc/emergency_collections", "0");
    ("vm/gc/incremental/barrier_grays", "0");
    ("vm/gc/incremental/budget_overruns", "0");
    ("vm/gc/incremental/final_marks", "0");
    ("vm/gc/incremental/increments", "0");
    ("vm/gc/incremental/pause_words", "{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0.0,\"p50\":0,\"p90\":0,\"p99\":0}");
    ("vm/gc/major/pause_words", "{\"count\":1,\"sum\":130,\"max\":130,\"mean\":130.0,\"p50\":255,\"p90\":255,\"p99\":255}");
    ("vm/gc/minor/collections", "16");
    ("vm/gc/minor/pause_words", "{\"count\":16,\"sum\":41366,\"max\":3232,\"mean\":2585.375,\"p50\":4095,\"p90\":4095,\"p99\":4095}");
    ("vm/gc/objects_freed", "20814");
    ("vm/gc/promotions", "12");
    ("vm/gc/words_scanned", "2860");
    ("vm/heap/footprint", "{\"last\":339968,\"max\":339968}");
    ("vm/steps", "1248500");
    ("vm/traps", "0");
    ("heap profile md5", "eaa3eef7afb4f6e07305b0b4497f4ec5");
  ]

let test_vm_metrics () =
  let actual = vm_metrics "cfrac" B.Safe Gcheap.Heap.Gen in
  if actual <> golden_metrics then
    Alcotest.failf "vm metrics moved; measured:\n%s"
      (String.concat "\n"
         (List.map (fun (n, j) -> Printf.sprintf "    (%S, %S);" n j) actual))

let suite =
  [
    Alcotest.test_case "paper suite counters are bit-identical" `Slow
      test_paper_counters;
    Alcotest.test_case "forced-schedule gc points are bit-identical" `Quick
      test_forced_points;
    Alcotest.test_case "telemetry registry of a run is bit-identical" `Quick
      test_vm_metrics;
  ]
