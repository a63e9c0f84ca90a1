(* The observability plane: flight-recorder ring wraparound and dump
   validation, worker-count determinism of service dumps and event
   streams, the windowed-stream merge law, heap-census invariants,
   per-request phase accounting, pause-budget response of the pause
   metric, and supervised-pool anomaly events. *)

module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Flight = Telemetry.Flight_recorder
module Stream = Telemetry.Stream
module Request = Harness.Request
module Gcsafed = Service.Gcsafed
module Trafficgen = Service.Trafficgen

(* --- flight recorder: ring wraparound (qcheck) -------------------------- *)

let test_ring_wraparound =
  QCheck.Test.make ~name:"ring wraparound keeps the last [capacity] events"
    ~count:200
    QCheck.(pair (int_range 1 48) (int_range 0 200))
    (fun (capacity, n) ->
      let r = Flight.create ~capacity () in
      for i = 0 to n - 1 do
        Flight.record r ~ts:(i * 3) "ev" [ ("i", Json.Int i) ]
      done;
      let evs = Flight.events r in
      let dropped = max 0 (n - capacity) in
      Flight.recorded r = n
      && Flight.dropped r = dropped
      && List.length evs = min n capacity
      && List.mapi (fun k e -> e.Flight.fr_ordinal = dropped + k) evs
         |> List.for_all Fun.id
      && Flight.check (Flight.dump r) = Ok ())

let test_dump_check_rejects_tampering () =
  let r = Flight.create ~capacity:4 () in
  for i = 0 to 9 do
    Flight.record r ~ts:i "ev" []
  done;
  let doc = Flight.dump r in
  Alcotest.(check bool) "is_dump" true (Flight.is_dump doc);
  (match Flight.check doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("honest dump rejected: " ^ e));
  let tamper f =
    match doc with
    | Json.Obj [ ("flightRecorder", Json.Obj fields) ] ->
        Json.Obj [ ("flightRecorder", Json.Obj (f fields)) ]
    | _ -> Alcotest.fail "unexpected dump shape"
  in
  let bad =
    [
      ( "recorded count lies",
        tamper
          (List.map (function
            | "recorded", _ -> ("recorded", Json.Int 3)
            | kv -> kv)) );
      ( "an event deleted",
        tamper
          (List.map (function
            | "events", Json.List (_ :: rest) -> ("events", Json.List rest)
            | kv -> kv)) );
      ( "ordinal gap",
        tamper
          (List.map (function
            | "events", Json.List evs ->
                ( "events",
                  Json.List
                    (List.mapi
                       (fun k ev ->
                         match (k, ev) with
                         | 2, Json.Obj fields ->
                             Json.Obj
                               (List.map
                                  (function
                                    | "ordinal", Json.Int o ->
                                        ("ordinal", Json.Int (o + 1))
                                    | kv -> kv)
                                  fields)
                         | _ -> ev)
                       evs) )
            | kv -> kv)) );
    ]
  in
  List.iter
    (fun (what, doc) ->
      match Flight.check doc with
      | Ok () -> Alcotest.fail ("accepted: " ^ what)
      | Error _ -> ())
    bad

(* --- service: dump and event stream identical across --jobs ------------- *)

let observe_bomb spec jobs =
  let lines = Buffer.create 1024 in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let t =
        Gcsafed.create ~pool
          ~events:(fun line ->
            Buffer.add_string lines (Json.to_string line);
            Buffer.add_char lines '\n')
          ~window:200_000 Gcsafed.default_config
      in
      List.iter
        (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
        (Trafficgen.generate spec);
      Gcsafed.shutdown t;
      (Json.to_string (Gcsafed.dump t), Buffer.contents lines))

let test_dump_and_stream_jobs_identity () =
  let spec =
    {
      Trafficgen.default_spec with
      Trafficgen.g_requests = 30;
      g_seed = 7;
      g_mix = Trafficgen.Generated;
      g_chaos_percent = 25;
    }
  in
  (* warm the process-wide build cache first: the absorbed
     [build/cache/*] counters reflect physical cache state, which is
     process history, not a worker-count effect *)
  ignore (observe_bomb spec 1);
  let dump1, stream1 = observe_bomb spec 1 in
  let dump4, stream4 = observe_bomb spec 4 in
  Alcotest.(check string) "flight dump identical across --jobs" dump1 dump4;
  Alcotest.(check string) "event stream identical across --jobs" stream1
    stream4;
  (match Json.parse dump1 with
  | Ok doc -> (
      match Flight.check doc with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("service dump invalid: " ^ e))
  | Error e -> Alcotest.fail e);
  (* every window line carries a burn rate, even when no SLO fired *)
  let window_lines =
    String.split_on_char '\n' stream1
    |> List.filter_map (fun l ->
           if l = "" then None
           else
             match Json.parse l with
             | Ok (Json.Obj _ as doc)
               when Json.member "type" doc = Some (Json.Str "window") ->
                 Some doc
             | _ -> None)
  in
  Alcotest.(check bool) "at least one window emitted" true
    (window_lines <> []);
  List.iter
    (fun w ->
      match Json.member "burn_rate" w with
      | Some (Json.Float _) | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "window line missing burn_rate")
    window_lines

(* --- stream: the window merge law (qcheck) ------------------------------ *)

let ops_gen =
  (* (instrument kind, value, clock advance) *)
  QCheck.(list_of_size Gen.(int_range 0 40) (triple (int_range 0 2) small_nat (int_range 0 30)))

let apply_op m (kind, v, _) =
  match kind with
  | 0 -> Metrics.add (Metrics.counter m "c") v
  | 1 -> Metrics.set (Metrics.gauge m "g") v
  | _ -> Metrics.observe (Metrics.histogram m "h") v

(* Folding {!Metrics.merge} over a stream's windows equals the diff of
   the whole interval, for [interval]'s ops applied on top of
   [before]'s. *)
let window_merge_holds (before, interval) =
  let m = Metrics.create () in
  List.iter (apply_op m) before;
  let s0 = Metrics.snapshot m in
  let s = Stream.create ~window:16 ~metrics:m ~emit:ignore () in
  let now = ref 0 in
  List.iter
    (fun ((_, _, gap) as op) ->
      apply_op m op;
      now := !now + gap;
      Stream.advance s ~now:!now)
    interval;
  Stream.finish s ~now:!now;
  let merged =
    match Stream.windows s with
    | [] -> []
    | w :: ws -> List.fold_left Metrics.merge w ws
  in
  let whole = Metrics.diff (Metrics.snapshot m) s0 in
  Json.to_string (Metrics.to_json merged)
  = Json.to_string (Metrics.to_json whole)

let test_window_merge_law =
  QCheck.Test.make
    ~name:"folding merge over stream windows equals the whole-run diff"
    ~count:200
    QCheck.(pair ops_gen ops_gen)
    window_merge_holds

(* The clock lands exactly on a window boundary and a count is recorded
   at that same final tick: [finish] must still emit it. *)
let test_finish_on_boundary () =
  Alcotest.(check bool) "count at the final boundary tick is kept" true
    (window_merge_holds ([], [ (0, 0, 16); (0, 1, 0) ]))

(* --- heap census --------------------------------------------------------- *)

let test_census_invariants_direct () =
  let h = Gcheap.Heap.create () in
  let addrs = List.init 120 (fun i -> Gcheap.Heap.alloc h (8 + (8 * (i mod 6)))) in
  ignore addrs;
  let c = Gcheap.Census.take h in
  Alcotest.(check bool) "live <= committed" true
    (c.Gcheap.Census.cn_live_words <= c.Gcheap.Census.cn_committed_words);
  Alcotest.(check int) "free-page pool idle without ceiling pressure" 0
    c.Gcheap.Census.cn_free_pages;
  Alcotest.(check int) "no free-page runs either" 0
    c.Gcheap.Census.cn_free_page_runs;
  Alcotest.(check bool) "dirty cards bounded by total cards" true
    (c.Gcheap.Census.cn_dirty_cards <= c.Gcheap.Census.cn_cards);
  let frag = Gcheap.Census.fragmentation c in
  Alcotest.(check bool) "fragmentation in [0,1]" true
    (frag >= 0.0 && frag <= 1.0);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "class %d: allocated <= slots" row.Gcheap.Census.cr_size)
        true
        (row.Gcheap.Census.cr_allocated <= row.Gcheap.Census.cr_slots))
    c.Gcheap.Census.cn_classes

let churn_src =
  {|int main(void) {
  int i; char *p;
  for (i = 0; i < 120; i++) {
    p = (char *)malloc(16 + (i % 40));
    p[0] = (char)i;
  }
  printf("%d\n", 120);
  return 0;
}|}

let test_census_sampled_per_collection () =
  let b = Harness.Build.compile Harness.Build.Safe churn_src in
  (* no final_collect: the exit-time collection samples a census too,
     which would make the count one more than [o_gc_count] *)
  let req = Request.make ~gc_threshold:256 churn_src in
  match Harness.Measure.exec ~census:true req b with
  | Harness.Measure.Ran r ->
      let censuses = r.Harness.Measure.o_census in
      Alcotest.(check int) "one census per collection"
        r.Harness.Measure.o_gc_count (List.length censuses);
      Alcotest.(check bool) "collections actually ran" true
        (r.Harness.Measure.o_gc_count > 0);
      List.iter
        (fun c ->
          Alcotest.(check bool) "live <= committed" true
            (c.Gcheap.Census.cn_live_words
            <= c.Gcheap.Census.cn_committed_words))
        censuses;
      let ords = List.map (fun c -> c.Gcheap.Census.cn_collections) censuses in
      Alcotest.(check bool) "collection ordinals strictly increasing" true
        (List.for_all2 ( < ) (0 :: ords) (ords @ [ max_int ]) || ords = []);
      (* the wire rendering parses back *)
      List.iter
        (fun c ->
          match Json.parse (Json.to_string (Harness.Measure.census_to_json c)) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("census JSON invalid: " ^ e))
        censuses
  | o -> Alcotest.fail (Harness.Measure.describe o)

(* --- phase accounting ---------------------------------------------------- *)

let test_phase_identity () =
  let spec =
    {
      Trafficgen.default_spec with
      Trafficgen.g_requests = 40;
      g_seed = 13;
      g_mix = Trafficgen.Generated;
      g_chaos_percent = 20;
    }
  in
  let t = Gcsafed.create Gcsafed.default_config in
  List.iter
    (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
    (Trafficgen.generate spec);
  Gcsafed.shutdown t;
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "trace %d: queue_wait + build + vm = latency"
           c.Gcsafed.r_trace_id)
        (c.Gcsafed.r_finish - c.Gcsafed.r_arrival)
        (c.Gcsafed.r_queue_wait + c.Gcsafed.r_build_ticks + c.Gcsafed.r_vm_ticks))
    (Gcsafed.completions t);
  let r = Gcsafed.report t in
  Alcotest.(check int) "report totals obey the same identity"
    r.Gcsafed.rp_total_latency
    (r.Gcsafed.rp_queue_wait + r.Gcsafed.rp_build_ticks + r.Gcsafed.rp_vm_ticks)

let test_trace_ids_dense_and_stamped () =
  let t = Gcsafed.create Gcsafed.default_config in
  for _ = 1 to 5 do
    Gcsafed.submit t (Request.make "int main(void) { return 0; }")
  done;
  Gcsafed.drain t;
  let ids = List.map (fun c -> c.Gcsafed.r_trace_id) (Gcsafed.completions t) in
  Alcotest.(check (list int)) "submit stamps 1..n in order" [ 1; 2; 3; 4; 5 ]
    ids

(* The pause measure that responds to the budget: the same request under
   a tighter incremental pause budget must show a strictly smaller
   worst-case pause, while tick latency stays identical (the ablation
   invariant: cycles don't depend on the budget).  The workload needs a
   real live graph — on trivially small heaps every pause is the atomic
   root scan, which no budget can shrink. *)
let test_pause_metric_responds_to_budget () =
  let run budget =
    let t = Gcsafed.create Gcsafed.default_config in
    Gcsafed.submit t
      (Request.make ~gc_mode:Gcheap.Heap.Inc ~gc_pause_budget:budget
         Workloads.Registry.cordtest.Workloads.Registry.w_source);
    Gcsafed.shutdown t;
    Gcsafed.report t
  in
  let tight = run 64 and loose = run 1024 in
  Alcotest.(check bool) "worst pause responds to the budget" true
    (tight.Gcsafed.rp_gc_max_pause_words
    < loose.Gcsafed.rp_gc_max_pause_words);
  Alcotest.(check int) "tick latency is pause-budget-invariant"
    loose.Gcsafed.rp_total_latency tight.Gcsafed.rp_total_latency;
  Alcotest.(check bool) "tight budget overruns surface as SLO burn" true
    (Gcsafed.burn_rate tight > Gcsafed.burn_rate loose)

(* --- sharded counters ---------------------------------------------------- *)

let test_sharded_counters_merge_on_snapshot () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hot" in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Exec.Pool.map pool
           (fun i ->
             for _ = 1 to 100 do
               Metrics.incr c
             done;
             i)
           (List.init 40 Fun.id)));
  match Metrics.find (Metrics.snapshot m) "hot" with
  | Some (Metrics.Counter 4000) -> ()
  | Some (Metrics.Counter n) ->
      Alcotest.failf "lost updates: expected 4000, got %d" n
  | _ -> Alcotest.fail "counter missing"

(* --- supervised pool anomaly events -------------------------------------- *)

let flaky ctx i =
  if i = 3 then raise (Exec.Pool.Crash "injected")
  else if i mod 2 = 0 && ctx.Exec.Pool.attempt = 1 then
    raise (Exec.Pool.Transient "wobble")
  else i * 10

let supervised_dump jobs =
  Exec.Pool.with_pool ~jobs (fun pool ->
      let recorder = Flight.create () in
      let outcomes, _ =
        Exec.Pool.map_supervised pool ~recorder flaky (List.init 8 Fun.id)
      in
      (outcomes, Flight.events recorder, Json.to_string (Flight.dump recorder)))

let test_pool_recorder_events () =
  let outcomes, events, dump = supervised_dump 1 in
  let kinds = List.map (fun e -> (e.Flight.fr_ts, e.Flight.fr_kind)) events in
  (* even indexes 0,2,4,6 retried; 3 quarantined *)
  Alcotest.(check (list (pair int string)))
    "retries and the quarantine, input-ordered"
    [
      (0, "pool.retry");
      (2, "pool.retry");
      (3, "pool.quarantine");
      (4, "pool.retry");
      (6, "pool.retry");
    ]
    kinds;
  (match List.nth outcomes 3 with
  | Exec.Pool.Quarantined _ -> ()
  | _ -> Alcotest.fail "index 3 should be quarantined");
  let _, _, dump4 = supervised_dump 4 in
  Alcotest.(check string) "pool dump identical across --jobs" dump dump4

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "dump check rejects tampering" `Quick
      test_dump_check_rejects_tampering;
    Alcotest.test_case "service dump and stream identical across --jobs"
      `Quick test_dump_and_stream_jobs_identity;
    Alcotest.test_case "census invariants (direct)" `Quick
      test_census_invariants_direct;
    Alcotest.test_case "census sampled per collection" `Quick
      test_census_sampled_per_collection;
    Alcotest.test_case "phase identity" `Quick test_phase_identity;
    Alcotest.test_case "trace ids dense and stamped" `Quick
      test_trace_ids_dense_and_stamped;
    Alcotest.test_case "pause metric responds to budget" `Quick
      test_pause_metric_responds_to_budget;
    Alcotest.test_case "sharded counters merge on snapshot" `Quick
      test_sharded_counters_merge_on_snapshot;
    Alcotest.test_case "pool recorder events" `Quick test_pool_recorder_events;
  ]
  @ qsuite [ test_ring_wraparound; test_window_merge_law ]
  @ [
      Alcotest.test_case "stream finish keeps counts at a boundary tick"
        `Quick test_finish_on_boundary;
    ]
