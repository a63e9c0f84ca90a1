(* perfbench: one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Set-up (building artifacts, generating inputs, warming the build
   cache) is timed on its own, several times, and reported as its
   median.  The timed part then runs rounds over the workload's units of
   work and stops at the round boundary nearest to S seconds (at least
   one round).  Both times are scaled by the host's speed, measured
   beside the work with a fixed loop of the benchmark's own.  Outputs
   are checked against references that do not come from the compiler
   under test: the workload registry's expected prefixes, the stress
   corpus's known hazards, stop-the-world output for the other
   collectors, and outcome classes for the service.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 the timed part is run untraced and then again under
   spans recorded around the calls into each layer, and the line
   carries the per-layer metrics.  Spans are written once, at exit, to
   .perfbench/spans-<workload>-<seed>.json.  The exit code is non-zero
   when any checked operation failed. *)

module B = Harness.Build
module M = Harness.Measure
module Rq = Harness.Request
open Perfbench
module I = Inputs

let log fmt = Printf.ksprintf prerr_endline fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* linear interpolation between order statistics (Python's
   statistics.quantiles "inclusive" method) *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let sum = List.fold_left ( +. ) 0.

let ratio a b = if b > 0. then a /. b else 0.

let fsum f xs = sum (List.map f xs)

(* ------------------------------------------------------------------ *)
(* Checked operations and reported metrics                             *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0

let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        log "perfbench: FAILED %s" what
      end)
    fmt

let metrics : (string * float * string) list ref = ref []

let metric name unit v = metrics := (name, v, unit) :: !metrics

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> Some (float kb /. 1024.)
              | None -> scan ())
        in
        scan ())
  in
  match (try from_status () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
      float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* ------------------------------------------------------------------ *)
(* Timing shapes                                                       *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Span.now () in
  let x = f () in
  (Span.now () -. t0, x)

(* ------------------------------------------------------------------ *)
(* The host's speed                                                    *)
(* ------------------------------------------------------------------ *)

(* On a shared host the core itself runs slower for stretches of a
   second to minutes, by up to a third, and CPU time tracks wall time.
   So the benchmark times a fixed loop of its own after every 50 ms or
   more of work, and scales the work by how fast the loop ran beside
   it: end-to-end times read as on a host where the loop takes
   [reference_s].  The loop is a small interpreter (dispatch over an
   instruction array, a register file, a 512 KB memory, an occasional
   allocation), the shape of the VM's inner loop but no code under
   test.  Over 21 stretches of 20 s on a 2-core shared Xeon, a stress
   unit's and a paper cell's raw walls spread 0.24 (interquartile range
   / median); scaled by this loop, 0.022 and 0.035. *)
let reference_code = Array.init 512 (fun i -> i * 7 mod 6)

let reference_mem = Array.make 65536 0

let reference_loop () =
  let code = reference_code and mem = reference_mem in
  let regs = Array.make 32 1 in
  let acc = ref 0 in
  for step = 0 to 1_500_000 do
    let pc = step land 511 in
    match code.(pc) with
    | 0 -> regs.(pc land 31) <- regs.((pc + 1) land 31) + 1
    | 1 -> mem.((regs.(pc land 31) * 97) land 65535) <- step
    | 2 -> acc := !acc + mem.((step * 31) land 65535)
    | 3 -> regs.((pc + 3) land 31) <- regs.(pc land 31) lxor step
    | 4 -> if step land 1023 = 0 then ignore (Sys.opaque_identity (Array.make 64 step))
    | _ -> acc := !acc + regs.(pc land 31)
  done;
  !acc

let reference_s = 0.005

type meter = {
  mutable work : float;  (** wall of the metered work *)
  mutable pending : float;  (** of it, since the last loop *)
  mutable weighted : float;
      (** sum over loops of the work before the loop times its wall *)
}

let new_meter () = { work = 0.; pending = 0.; weighted = 0. }

let sample_reference m =
  let r, _ = timed reference_loop in
  m.weighted <- m.weighted +. (m.pending *. r);
  m.pending <- 0.

(* [f] timed as work on [m] *)
let metered m f =
  let t, x = timed f in
  m.work <- m.work +. t;
  m.pending <- m.pending +. t;
  if m.pending >= 0.05 then sample_reference m;
  (t, x)

(* reference seconds per wall second of [m]'s work: [reference_s] over
   the loop's work-weighted mean wall *)
let scale m =
  if m.pending > 0. then sample_reference m;
  ratio (m.work *. reference_s) m.weighted

(* Self time (seconds) and span count of one span name. *)
let self_total selfs name =
  List.fold_left
    (fun (a, k) (nm, s, n) -> if nm = name then (a +. s, k + n) else (a, k))
    (0., 0) selfs

(* Set up at least three times and for at least two seconds in all (at
   most 50 times), each from an empty build cache and a collected OCaml
   heap; the last set-up's result is the one used.  [setup_time] is the
   median time, metered on [setup_meter].  Traced runs set up once. *)
let setup_meter = new_meter ()

let setup_time = ref 0.

let setup ~traced f =
  let rec go acc n total =
    B.reset_cache ();
    Gc.full_major ();
    let t, x = metered setup_meter f in
    let acc = t :: acc and total = total +. t in
    if traced || (n >= 3 && total >= 2.) || n >= 50 then (acc, x)
    else go acc (n + 1) total
  in
  let times, x = go [] 1 0. in
  setup_time := median times;
  x

(* Rounds over a workload's units of work, timed on [timed_meter]:
   every round runs each unit once, in order, and starts from a
   collected OCaml heap.  Rounds stop at the round boundary nearest to
   [budget] seconds; at least one.  Returns each round's results and the
   units' summed wall. *)
let timed_meter = new_meter ()

let rounds ~budget units =
  let t0 = Span.now () in
  let rec go acc n =
    Gc.full_major ();
    let r = List.map (fun u -> snd (metered timed_meter u)) units in
    let elapsed = Span.now () -. t0 in
    let n = n + 1 in
    if elapsed +. (elapsed /. float n /. 2.) >= budget then
      (List.rev (r :: acc), timed_meter.work)
    else go (r :: acc) n
  in
  go [] 0

(* The physical build-cache traffic of a stretch of work, so a cache
   left warm (or cold) by earlier work shows instead of inflating a
   number. *)
let cache_delta f =
  let s = B.new_session () in
  let x = f () in
  let d = B.session_stats s in
  log "perfbench: timed build cache: %d hits, %d misses, %d evictions, %d resident"
    d.Exec.Cache.hits d.Exec.Cache.misses d.Exec.Cache.evictions
    d.Exec.Cache.entries;
  (x, d)

(* ------------------------------------------------------------------ *)
(* Cells: one program run under one build and collector mode          *)
(* ------------------------------------------------------------------ *)

let cell_request (c : I.cell) =
  Rq.make ~config:c.I.c_config ~machine:I.machine ~gc_mode:c.I.c_gc_mode
    c.I.c_source

let build_cell (c : I.cell) =
  let req = cell_request c in
  (c, B.compile ~options:(Rq.build_options req) c.I.c_config c.I.c_source)

type run = { r_cell : I.cell; r_wall : float; r_outcome : M.outcome option }

let exec_cell ?tr ?telemetry ((c : I.cell), built) =
  let req = cell_request c in
  let t0 = Span.now () in
  let o =
    try Some (Span.with_span tr "harness.exec" (fun () -> M.exec ?telemetry req built))
    with e ->
      log "perfbench: %s raised %s" (I.cell_name c) (Printexc.to_string e);
      None
  in
  { r_cell = c; r_wall = Span.now () -. t0; r_outcome = o }

let info r = match r.r_outcome with Some (M.Ran i) -> Some i | _ -> None

let is_shape config mode r =
  r.r_cell.I.c_config = config && r.r_cell.I.c_gc_mode = mode

(* A run is correct when the checked build of a known-buggy program
   stops it, every other run completes with the registry's expected
   prefix (when there is one), and the generational and incremental
   collectors print what stop-the-world printed. *)
let check_runs runs =
  let stw_output program =
    List.find_map
      (fun r ->
        if r.r_cell.I.c_program = program && is_shape B.Safe Gcheap.Heap.Stw r
        then Option.map (fun i -> i.M.o_output) (info r)
        else None)
      runs
  in
  List.iter
    (fun r ->
      let c = r.r_cell in
      let name = I.cell_name c in
      let must_detect = c.I.c_checked_fails && c.I.c_config = B.Debug_checked in
      match (r.r_outcome, info r) with
      | Some (M.Detected _), _ when must_detect -> check true "%s" name
      | _, Some i when not must_detect ->
          let prefix_ok =
            match c.I.c_expected_prefix with
            | Some p -> String.starts_with ~prefix:p i.M.o_output
            | None -> true
          in
          let mode_ok =
            c.I.c_gc_mode = Gcheap.Heap.Stw
            ||
            match stw_output c.I.c_program with
            | Some out -> out = i.M.o_output
            | None -> true
          in
          check (prefix_ok && mode_ok) "%s: output %S" name
            (String.sub i.M.o_output 0 (min 40 (String.length i.M.o_output)))
      | o, _ ->
          check false "%s: %s" name
            (match o with Some o -> M.describe o | None -> "raised"))
    runs

(* Machine and heap figures of a set of runs (per execution). *)
let exec_metrics runs =
  let ran = List.filter_map (fun r -> Option.map (fun i -> (r, i)) (info r)) runs in
  let n = float (max 1 (List.length ran)) in
  let per f = fsum (fun (_, i) -> float (f i)) ran /. n in
  metric "machine.steps" "count" (per (fun i -> i.M.o_instrs));
  metric "machine.cycles" "count" (per (fun i -> i.M.o_cycles));
  let ns_per_step config =
    let rs = List.filter (fun (r, _) -> is_shape config Gcheap.Heap.Stw r) ran in
    ratio
      (fsum (fun (r, _) -> r.r_wall) rs *. 1e9)
      (fsum (fun (_, i) -> float i.M.o_instrs) rs)
  in
  metric "machine.ns_per_step.base" "ns" (ns_per_step B.Base);
  metric "machine.ns_per_step.safe" "ns" (ns_per_step B.Safe);
  metric "machine.ns_per_step.checked" "ns" (ns_per_step B.Debug_checked);
  (* safe under gen/inc against safe under stw, over the same programs *)
  let safe_wall mode =
    fsum (fun (r, _) -> if is_shape B.Safe mode r then r.r_wall else 0.) ran
  in
  metric "gcheap.mode_cost.gen" "ratio"
    (ratio (safe_wall Gcheap.Heap.Gen) (safe_wall Gcheap.Heap.Stw));
  metric "gcheap.mode_cost.inc" "ratio"
    (ratio (safe_wall Gcheap.Heap.Inc) (safe_wall Gcheap.Heap.Stw));
  metric "gcheap.collections" "count" (per (fun i -> i.M.o_gc_count));
  metric "gcheap.allocs" "count" (per (fun i -> i.M.o_allocs));
  metric "gcheap.pause_words" "count" (per (fun i -> i.M.o_gc_total_pause_words));
  metric "gcheap.max_pause_words" "count"
    (float (List.fold_left (fun m (_, i) -> max m i.M.o_gc_max_pause_words) 0 ran));
  metric "gcheap.emergency" "count" (per (fun i -> i.M.o_emergency));
  (* Measure.exec is the VM with its heap: without spans inside the
     program the two are one span, so the VM share is the whole call *)
  let ms = fsum (fun r -> r.r_wall) runs *. 1e3 /. float (max 1 (List.length runs)) in
  metric "harness.exec_ms" "ms" ms;
  metric "machine.vm_ms" "ms" ms

(* Telemetry cost on the same cells: each run without, then with, a
   fresh enabled sink. *)
let sink_overhead built =
  let without, with_ =
    List.fold_left
      (fun (a, b) cb ->
        let r0 = exec_cell cb in
        let r1 = exec_cell ~telemetry:(Telemetry.Sink.make ()) cb in
        (a +. r0.r_wall, b +. r1.r_wall))
      (0., 0.) built
  in
  metric "telemetry.sink_overhead" "ratio" (ratio with_ without)

(* Warm-key lookups: what a hit costs (the artifact is digested under
   the cache lock).  Cycles over the keys until [n] lookups. *)
let cache_hit_probe ?tr ~n (keys : (B.options * B.config * string) list) =
  let keys = Array.of_list keys in
  let samples =
    if Array.length keys = 0 then []
    else
      List.init n (fun k ->
          let options, config, source = keys.(k mod Array.length keys) in
          fst
            (timed (fun () ->
                 Span.with_span tr "exec.cache.hit" (fun () ->
                     ignore (B.compile ~options config source)))))
  in
  metric "exec.cache.hit_us_p50" "us" (median samples *. 1e6);
  metric "exec.cache.hit_us_p99" "us" (quantile 0.99 samples *. 1e6)

(* ------------------------------------------------------------------ *)
(* Builds split by layer                                               *)
(* ------------------------------------------------------------------ *)

type build_counts = {
  bc_bytes : int;
  bc_keep_lives : int;
  bc_lowered : int;
  bc_spills : int;
  bc_coalesced : int;
  bc_out : int;
  bc_rewrites : int;
}

(* The passes of [Harness.Build.compile_uncached], in its order, each
   under its layer's span.  [guard_drift] checks every such build
   against the library's own cache-off build. *)
let split_build tr (options : B.options) (config : B.config) source =
  let sp name f = Span.with_span tr name f in
  sp "harness.build" (fun () ->
      let ast = sp "csyntax.parse" (fun () -> Csyntax.Parser.parse_program source) in
      let annotate mode =
        let opts =
          { (Gcsafe.Mode.default mode) with Gcsafe.Mode.analysis = options.B.analysis }
        in
        let r = sp "core.annotate" (fun () -> Gcsafe.Annotate.run ~opts ast) in
        (r.Gcsafe.Annotate.program, r.Gcsafe.Annotate.keep_live_count)
      in
      let annotated, keep_lives =
        match config with
        | B.Base | B.Debug ->
            sp "csyntax.typecheck" (fun () ->
                ignore (Csyntax.Typecheck.check_program ast));
            (ast, 0)
        | B.Safe | B.Safe_peephole -> annotate Gcsafe.Mode.Safe
        | B.Debug_checked -> annotate Gcsafe.Mode.Checked
      in
      let optimize =
        match config with
        | B.Base | B.Safe | B.Safe_peephole -> true
        | B.Debug | B.Debug_checked -> false
      in
      let mode = if optimize then Ir.Compile.opt_mode else Ir.Compile.debug_mode in
      let irp = sp "ir.lower" (fun () -> Ir.Compile.compile_program ~mode annotated) in
      let lowered = Ir.Instr.program_size irp in
      let ps =
        sp "opt.pipeline" (fun () ->
            Opt.Pipeline.run_program
              { Opt.Pipeline.default with Opt.Pipeline.optimize; nregs = options.B.nregs }
              irp)
      in
      let out = Ir.Instr.program_size irp in
      let rewrites =
        match config with
        | B.Safe_peephole ->
            let st = sp "peephole" (fun () -> Peephole.Postprocess.run irp) in
            Peephole.Postprocess.(
              st.ph_fused_loads + st.ph_forwarded_moves + st.ph_sunk_adds)
        | B.Base | B.Safe | B.Debug | B.Debug_checked -> 0
      in
      ( {
          B.b_config = config;
          b_ir = irp;
          b_keep_lives = keep_lives;
          b_size = Ir.Instr.program_size irp;
        },
        {
          bc_bytes = String.length source;
          bc_keep_lives = keep_lives;
          bc_lowered = lowered;
          bc_spills = ps.Opt.Pipeline.ps_spills;
          bc_coalesced = ps.Opt.Pipeline.ps_coalesced;
          bc_out = out;
          bc_rewrites = rewrites;
        } ))

let guard_drift tr options config source (b : B.built) =
  Span.with_span tr "guard.drift" (fun () ->
      let lib = B.compile ~options:{ options with B.use_cache = false } config source in
      check
        (lib.B.b_ir = b.B.b_ir
        && lib.B.b_size = b.B.b_size
        && lib.B.b_keep_lives = b.B.b_keep_lives)
        "split build of %s at %d registers matches Build.compile"
        (B.config_id config) options.B.nregs)

(* Per-build layer figures from the spans and counts of [n] builds. *)
let build_layer_metrics ~selfs ~spans counts =
  let n = float (max 1 (List.length counts)) in
  let self name = fst (self_total selfs name) in
  let per_build_ms name = self name *. 1e3 /. n in
  let per f = fsum (fun c -> float (f c)) counts /. n in
  metric "csyntax.parse_ms" "ms" (per_build_ms "csyntax.parse");
  metric "csyntax.parse_mb_per_s" "MB/s"
    (ratio (fsum (fun c -> float c.bc_bytes) counts /. 1e6) (self "csyntax.parse"));
  metric "csyntax.typecheck_ms" "ms" (per_build_ms "csyntax.typecheck");
  metric "core.annotate_ms" "ms" (per_build_ms "core.annotate");
  metric "core.keep_lives" "count" (per (fun c -> c.bc_keep_lives));
  metric "ir.lower_ms" "ms" (per_build_ms "ir.lower");
  metric "ir.lowered_instrs" "count" (per (fun c -> c.bc_lowered));
  metric "opt.pipeline_ms" "ms" (per_build_ms "opt.pipeline");
  metric "opt.spills" "count" (per (fun c -> c.bc_spills));
  metric "opt.coalesced" "count" (per (fun c -> c.bc_coalesced));
  metric "opt.out_instrs" "count" (per (fun c -> c.bc_out));
  metric "peephole.ms" "ms" (per_build_ms "peephole");
  metric "peephole.rewrites" "count" (per (fun c -> c.bc_rewrites));
  let whole =
    List.filter_map
      (fun (s : Span.span) ->
        if s.Span.name = "harness.build" then Some (s.Span.t1 -. s.Span.t0) else None)
      spans
  in
  metric "harness.build_ms" "ms" (sum whole *. 1e3 /. n);
  metric "harness.build_ms_p99" "ms" (quantile 0.99 whole *. 1e3)

(* Split builds of a set of build inputs with the drift guard: the
   build-layer attribution for workloads whose builds happen in set-up. *)
let attribute_builds tr keys =
  List.map
    (fun (options, config, source) ->
      let b, c = split_build (Some tr) options config source in
      guard_drift (Some tr) options config source b;
      c)
    keys

(* ------------------------------------------------------------------ *)
(* The traced run's bookkeeping                                        *)
(* ------------------------------------------------------------------ *)

(* [f]'s result and the spans closed while it ran. *)
let sub_spans tr f =
  let before = List.length (Span.spans tr) in
  let x = f () in
  (x, List.filteri (fun i _ -> i >= before) (Span.spans tr))

(* A traced timed part: [f] runs under the root span "timed"; returns
   its result, its spans and their self times, the traced wall (minus
   drift-guard time, which is not part of the workload) and the layers'
   self-time sum. *)
let traced_part tr f =
  let x, mine = sub_spans tr (fun () -> Span.with_span (Some tr) "timed" f) in
  let selfs = Span.self_times mine in
  let total name = fst (self_total selfs name) in
  let root = List.find (fun s -> s.Span.name = "timed") (List.rev mine) in
  let wall = root.Span.t1 -. root.Span.t0 -. total "guard.drift" in
  (x, mine, selfs, wall, wall -. total "timed")

let trace_metrics ~untraced ~traced ~layers =
  metric "trace.overhead" "ratio" (ratio traced untraced);
  metric "trace.layer_share" "ratio" (ratio layers traced);
  check (layers >= 0.9 *. traced)
    "layer self-times cover %.1f%% of the traced wall" (100. *. ratio layers traced)

let zero names = List.iter (fun (n, u) -> metric n u 0.) names

let stress_names =
  List.map (fun t -> ("stress.target_ms." ^ t.Stress.Corpus.t_name, "ms")) Stress.Corpus.examples
  @ [
      ("stress.ms_per_run", "ms");
      ("stress.runs", "count");
      ("stress.findings_expected", "count");
      ("stress.findings_unexpected", "count");
    ]

let service_names =
  [
    ("exec.pool.scaling", "ratio");
    ("service.submit_ms", "ms");
    ("service.drain_ms", "ms");
    ("service.report_ms", "ms");
    ("service.request_ms_p50", "ms");
    ("service.request_ms_p99", "ms");
    ("service.serial_overhead_ms", "ms");
  ]

let cache_metrics (d : Exec.Cache.stats) =
  let h = float d.Exec.Cache.hits and m = float d.Exec.Cache.misses in
  metric "exec.cache.physical_hit_ratio" "ratio" (ratio h (h +. m));
  metric "exec.cache.timed_hits" "count" h;
  metric "exec.cache.timed_misses" "count" m

(* [ops] operations in the timed part's rounds *)
let e2e ~ops =
  let m = timed_meter in
  let timed_scale = scale m and setup_scale = scale setup_meter in
  log "perfbench: %.6g ops per wall second, set-up %.4f s; reference scales %.4f (timed), %.4f (set-up)"
    (ratio ops m.work) !setup_time timed_scale setup_scale;
  metric "setup_s" "s" (!setup_time *. setup_scale);
  metric "norm_ops_per_s" "1/s" (ratio ops (m.work *. timed_scale));
  metric "peak_rss_mb" "MB" (peak_rss_mb ())

(* Verification cells: programs run outside the timed part, checked
   like paper-run's cells. *)
let verify ?tr cells =
  let built = List.map build_cell cells in
  let runs = List.map (exec_cell ?tr) built in
  check_runs runs;
  (built, runs)

(* Build-layer attribution over a workload's build inputs (at most
   [cap] of them, in the given order). *)
let build_attribution tr ?(cap = max_int) keys =
  let keys = List.filteri (fun i _ -> i < cap) keys in
  let counts, spans = sub_spans tr (fun () -> attribute_builds tr keys) in
  build_layer_metrics ~selfs:(Span.self_times spans) ~spans counts

(* always through the cache: these keys are warmed or probed *)
let request_key (req : Rq.t) =
  ({ (Rq.build_options req) with B.use_cache = true }, req.Rq.config, req.Rq.source)

let builds (o, c, s) = try ignore (B.compile ~options:o c s); true with _ -> false

let dedup_keys keys =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (o, c, s) ->
      let k = B.cache_key o c s in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    keys

let cell_keys built =
  dedup_keys
    (List.map (fun ((c : I.cell), _) -> request_key (cell_request c)) built)

let steps runs =
  fsum (fun r -> match info r with Some i -> float i.M.o_instrs | None -> 0.) runs

let hit_probe_lookups = 1000

(* ------------------------------------------------------------------ *)
(* paper-run                                                           *)
(* ------------------------------------------------------------------ *)

let paper_run ~seed ~budget ~tr =
  let built = setup ~traced:(tr <> None) (fun () -> List.map build_cell (I.paper_cells ~seed)) in
  let units = List.map (fun cb () -> exec_cell cb) built in
  let (ps, wall), d = cache_delta (fun () -> rounds ~budget units) in
  List.iter check_runs ps;
  check (d.Exec.Cache.hits + d.Exec.Cache.misses = 0) "paper-run timed part makes no builds";
  let runs = List.concat ps in
  match tr with
  | None ->
      e2e ~ops:(fsum steps ps)
  | Some t ->
      let traced, _, _, twall, layers =
        traced_part t (fun () -> List.map (fun _ -> List.map (exec_cell ~tr:t) built) ps)
      in
      List.iter check_runs traced;
      trace_metrics ~untraced:wall ~traced:twall ~layers;
      exec_metrics runs;
      cache_metrics d;
      sink_overhead
        (List.filter
           (fun ((c : I.cell), _) -> c.I.c_config = B.Safe && c.I.c_gc_mode = Gcheap.Heap.Stw)
           built);
      cache_hit_probe ~tr:t ~n:hit_probe_lookups (cell_keys built);
      build_attribution t (cell_keys built);
      zero stress_names;
      zero service_names

(* ------------------------------------------------------------------ *)
(* gc-stress                                                           *)
(* ------------------------------------------------------------------ *)

let stress_matrix =
  {
    Rq.default_matrix with
    Rq.m_machines = [ I.machine ];
    m_gc_modes = Gcheap.Heap.[ Stw; Gen; Inc ];
    m_check_integrity = true;
  }

(* One unit of the timed part: one target under one collector mode,
   with a collection at every safepoint and at every allocation.  Each
   unit's -O subject is its own baseline; the cross-mode agreement is
   checked on the verification cells. *)
let stress_plan mode =
  {
    Stress.Driver.default_plan with
    Stress.Driver.p_matrix = { stress_matrix with Rq.m_gc_modes = [ mode ] };
    p_modes = Some Stress.Driver.[ Every_n [ 1 ]; Alloc_points ];
    p_jobs = 1;
  }

let stress_keys targets =
  dedup_keys
    (List.concat_map
       (fun (t : Stress.Corpus.target) ->
         List.map request_key (Rq.expand stress_matrix t.Stress.Corpus.t_source))
       targets)

type stress_result = {
  s_target : Stress.Corpus.target;
  s_mode : Gcheap.Heap.gc_mode;
  s_wall : float;
  s_findings : Stress.Driver.finding list;
  s_runs : int;
}

let stress_target ?tr (t : Stress.Corpus.target) mode =
  let wall, (findings, _, runs) =
    timed (fun () ->
        Span.with_span tr ("stress.target." ^ t.Stress.Corpus.t_name) (fun () ->
            Stress.Driver.run_target (stress_plan mode) t))
  in
  { s_target = t; s_mode = mode; s_wall = wall; s_findings = findings; s_runs = runs }

let stress_units targets =
  List.concat_map
    (fun t -> List.map (fun mode -> (t, mode)) stress_matrix.Rq.m_gc_modes)
    targets

(* The corpus says which targets' -O builds are vulnerable: those must
   yield exactly one expected -O finding under each collector mode,
   every other target none. *)
let check_stress s =
  let t = s.s_target in
  let want = if t.Stress.Corpus.t_base_vulnerable then 1 else 0 in
  let expected, other =
    List.partition
      (fun f -> f.Stress.Driver.f_expected && f.Stress.Driver.f_config = B.Base)
      s.s_findings
  in
  check
    (List.length expected = want && other = [])
    "stress %s/%s: %d expected finding(s) (want %d), %d other" t.Stress.Corpus.t_name
    (Gcheap.Heap.gc_mode_name s.s_mode) (List.length expected) want (List.length other)

let stress_ops ss = float (List.fold_left (fun a s -> a + s.s_runs) 0 ss)

let gc_stress ~seed ~budget ~tr =
  (* set-up warms the build cache with the whole matrix, and the process
     (heap growth, code paths) with one untimed scan of the hazard *)
  let targets =
    setup ~traced:(tr <> None) (fun () ->
        let targets = I.stress_targets ~seed in
        List.iter
          (fun (o, c, s) -> ignore (B.compile ~options:o c s))
          (stress_keys targets);
        List.iter
          (fun mode -> ignore (Stress.Driver.run_target (stress_plan mode) Stress.Corpus.hazard))
          stress_matrix.Rq.m_gc_modes;
        targets)
  in
  let units = List.map (fun (t, mode) () -> stress_target t mode) (stress_units targets) in
  let (ps, wall), d = cache_delta (fun () -> rounds ~budget units) in
  List.iter (List.iter check_stress) ps;
  let all = List.concat ps in
  let cells = I.target_cells targets in
  match tr with
  | None ->
      ignore (verify cells);
      e2e ~ops:(fsum stress_ops ps)
  | Some t ->
      let traced, _, selfs, twall, layers =
        traced_part t (fun () ->
            List.map
              (fun _ -> List.map (fun (tg, mode) -> stress_target ~tr:t tg mode) (stress_units targets))
              ps)
      in
      List.iter (List.iter check_stress) traced;
      trace_metrics ~untraced:wall ~traced:twall ~layers;
      let traced = List.concat traced in
      let nrounds = float (List.length ps) in
      List.iter
        (fun (tg : Stress.Corpus.target) ->
          let name = "stress.target." ^ tg.Stress.Corpus.t_name in
          metric ("stress.target_ms." ^ tg.Stress.Corpus.t_name) "ms"
            (fst (self_total selfs name) *. 1e3 /. nrounds))
        Stress.Corpus.examples;
      metric "stress.ms_per_run" "ms"
        (fsum (fun s -> s.s_wall) traced *. 1e3 /. stress_ops traced);
      metric "stress.runs" "count" (stress_ops all /. nrounds);
      let count p =
        float
          (List.fold_left
             (fun a s -> a + List.length (List.filter p s.s_findings))
             0 all)
        /. nrounds
      in
      metric "stress.findings_expected" "count" (count (fun f -> f.Stress.Driver.f_expected));
      metric "stress.findings_unexpected" "count"
        (float
           (List.length
              (Stress.Driver.unexpected
                 {
                   Stress.Driver.r_findings = List.concat_map (fun s -> s.s_findings) all;
                   r_targets = 0;
                   r_subjects = 0;
                   r_runs = 0;
                 }))
        /. nrounds);
      cache_metrics d;
      let built, runs = verify ~tr:t cells in
      exec_metrics runs;
      sink_overhead built;
      cache_hit_probe ~tr:t ~n:hit_probe_lookups (stress_keys targets);
      build_attribution t (stress_keys targets);
      zero service_names

(* ------------------------------------------------------------------ *)
(* build-cold                                                          *)
(* ------------------------------------------------------------------ *)

let build_job (j : I.build_job) =
  match B.compile ~options:(I.job_options j) j.I.j_config j.I.j_source with
  | b -> check (b.B.b_size > 0) "build %s" j.I.j_program
  | exception e ->
      check false "build %s/%s at %d registers raised %s" j.I.j_program
        (B.config_id j.I.j_config) j.I.j_nregs (Printexc.to_string e)

let build_cold ~seed ~budget ~tr =
  (* set-up generates the sources and warms the process (heap growth,
     code paths) with one cold safe build of each *)
  let jobs =
    setup ~traced:(tr <> None) (fun () ->
        let jobs = I.build_jobs ~seed ~generated:I.build_generated in
        List.iter
          (fun (j : I.build_job) ->
            if j.I.j_config = B.Safe && j.I.j_nregs = 32 then
              ignore (B.compile ~options:(I.job_options j) j.I.j_config j.I.j_source))
          jobs;
        jobs)
  in
  let units = List.map (fun j () -> build_job j) jobs in
  let (ps, wall), d = cache_delta (fun () -> rounds ~budget units) in
  check (d.Exec.Cache.hits + d.Exec.Cache.misses = 0) "build-cold timed part bypasses the cache";
  let cells = I.generated_cells ~seed I.verify_generated in
  match tr with
  | None ->
      ignore (verify cells);
      e2e ~ops:(float (List.length jobs * List.length ps))
  | Some t ->
      let keys = List.map (fun (j : I.build_job) -> (I.job_options j, j.I.j_config, j.I.j_source)) jobs in
      let counts, spans, _, twall, layers =
        traced_part t (fun () -> List.concat_map (fun _ -> attribute_builds t keys) ps)
      in
      trace_metrics ~untraced:wall ~traced:twall ~layers;
      build_layer_metrics ~selfs:(Span.self_times spans) ~spans counts;
      cache_metrics d;
      let built, runs = verify ~tr:t cells in
      exec_metrics runs;
      sink_overhead built;
      cache_hit_probe ~tr:t ~n:hit_probe_lookups (cell_keys built);
      zero stress_names;
      zero service_names

(* ------------------------------------------------------------------ *)
(* service-mix                                                         *)
(* ------------------------------------------------------------------ *)

(* One offline batch: submit a whole stream to a fresh service, then
   shut it down (which drains every request).  Returns the batch's wall
   (submit + shutdown); the report is read and checked outside it. *)
let service_batch ?tr ~pool traffic =
  let module G = Service.Gcsafed in
  let svc =
    G.create ~pool { G.default_config with G.queue_capacity = List.length traffic }
  in
  let wall, () =
    timed (fun () ->
        Span.with_span tr "service.submit" (fun () ->
            List.iter (fun (arrival, req) -> G.submit ~arrival svc req) traffic);
        Span.with_span tr "service.drain" (fun () -> G.shutdown svc))
  in
  let rp = Span.with_span tr "service.report" (fun () -> G.report svc) in
  let bad = rp.G.rp_unexpected + rp.G.rp_rejected in
  check
    (bad = 0 && rp.G.rp_submitted = List.length traffic)
    "service batch: %d submitted, %d unexpected, %d rejected" rp.G.rp_submitted
    rp.G.rp_unexpected rp.G.rp_rejected;
  (* every request counts as one attempted operation *)
  attempted := !attempted + rp.G.rp_submitted - 1;
  failed := !failed + max 0 (bad - 1);
  wall

let batch_rates batches walls =
  List.map2 (fun b w -> ratio (float (List.length b)) w) batches walls

(* Every batch of the seed's stream once, in order: a round. *)
let service_round ?tr ~pool batches () = List.map (service_batch ?tr ~pool) batches

(* The timed service runs on one worker: over ten seeds its rate spread
   0.07, against 0.15-0.21 on two domains, at the same median.  The
   traced run measures the pool at up to two domains against it. *)
let service_mix ~seed ~budget ~tr =
  let batches =
    setup ~traced:(tr <> None) (fun () ->
        let batches = I.service_traffic ~seed in
        List.iter
          (fun k -> ignore (builds k))
          (dedup_keys (List.map (fun (_, r) -> request_key r) (List.concat batches)));
        batches)
  in
  let pool = Exec.Pool.serial in
  let units = List.map (fun b () -> service_batch ~pool b) batches in
  let (ps, _), d = cache_delta (fun () -> rounds ~budget units) in
  let cells = I.generated_cells ~seed I.verify_generated in
  match tr with
  | None ->
      ignore (verify cells);
      e2e ~ops:(float (List.length (List.concat batches) * List.length ps))
  | Some t ->
      let rates = List.concat_map (batch_rates batches) ps in
      let _, _, selfs, twall, layers =
        traced_part t (fun () ->
            List.map (fun _ -> service_round ~tr:t ~pool batches ()) ps)
      in
      trace_metrics ~untraced:(fsum sum ps) ~traced:twall ~layers;
      let per_batch name =
        fst (self_total selfs name) *. 1e3 /. float (List.length batches * List.length ps)
      in
      metric "service.submit_ms" "ms" (per_batch "service.submit");
      metric "service.drain_ms" "ms" (per_batch "service.drain");
      metric "service.report_ms" "ms" (per_batch "service.report");
      let parallel =
        Exec.Pool.with_pool ~jobs:(min 2 (Exec.Pool.recommended_jobs ())) (fun pool ->
            service_round ~pool batches ())
      in
      metric "exec.pool.scaling" "ratio"
        (ratio (median (batch_rates batches parallel)) (median rates));
      (* serial replay of the first batches in gcsafed's shape: each
         request under its own fresh sink, and once without a sink *)
      let replayed = List.filteri (fun i _ -> i < I.replay_batches) batches in
      let replay =
        List.map
          (fun (_, req) ->
            let bare, _ = timed (fun () -> Harness.Outcome.execute req) in
            let sinked, _ =
              timed (fun () ->
                  Span.with_span (Some t) "service.request" (fun () ->
                      let m = Telemetry.Metrics.create () in
                      Harness.Outcome.execute
                        ~telemetry:(Telemetry.Sink.make ~metrics:m ())
                        req))
            in
            (bare, sinked))
          (List.concat replayed)
      in
      let sinked = List.map snd replay in
      metric "service.request_ms_p50" "ms" (median sinked *. 1e3);
      metric "service.request_ms_p99" "ms" (quantile 0.99 sinked *. 1e3);
      (* the one-worker drain of the replayed batches, less their requests *)
      let drained = List.filteri (fun i _ -> i < I.replay_batches) (List.hd ps) in
      metric "service.serial_overhead_ms" "ms"
        ((sum drained -. sum sinked) *. 1e3 /. float (List.length replayed));
      metric "telemetry.sink_overhead" "ratio" (ratio (sum sinked) (fsum fst replay));
      cache_metrics d;
      let keys =
        dedup_keys (List.map (fun (_, r) -> request_key r) (List.concat batches))
      in
      let valid = List.filter builds keys in
      cache_hit_probe ~tr:t ~n:hit_probe_lookups valid;
      let _, runs = verify ~tr:t cells in
      exec_metrics runs;
      build_attribution t ~cap:I.attribution_cap valid;
      zero stress_names

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("paper-run", paper_run);
    ("gc-stress", gc_stress);
    ("build-cold", build_cold);
    ("service-mix", service_mix);
  ]

(* full precision; JSON has no spelling for nan/inf *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct =
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      !metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed (String.concat ", " fields)

let write_spans ~workload ~seed tr =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-%d.json" dir workload seed in
  Out_channel.with_open_text path (fun oc ->
      Telemetry.Json.to_channel oc (Span.to_json (Span.spans tr)));
  log "perfbench: spans written to %s" path

let usage =
  "perfbench --workload (paper-run|gc-stress|build-cold|service-mix) --seed N \
   --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline usage;
      exit 2
  | Some run ->
      let tr = if !trace = 1 then Some (Span.create ()) else None in
      B.reset_cache ();
      (* a traced run times the untraced part for half the time, then
         repeats its rounds under spans *)
      let budget = if tr = None then !seconds else !seconds /. 2. in
      run ~seed:!seed ~budget ~tr;
      Option.iter (write_spans ~workload:!workload ~seed:!seed) tr;
      let correct = !failed = 0 && !attempted > 0 in
      print_endline (result_line ~correct);
      if not correct then exit 1
