(* Every input a workload runs on, made from the seed argument alone.
   The programs under test receive only these generated inputs. *)

module B = Harness.Build
module R = Workloads.Registry

let machine = Machine.Machdesc.sparc10

(* Seeded Fisher-Yates; the order of independent operations is the
   seed's only effect on the fixed program sets (paper suite, stress
   corpus). *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One execution of one program under one build and collector mode: the
   paper's table cells. *)
type cell = {
  c_program : string;
  c_source : string;
  c_expected_prefix : string option;
      (** reference output from the workload registry, when it has one *)
  c_checked_fails : bool;  (** the checked build must stop the program *)
  c_config : B.config;
  c_gc_mode : Gcheap.Heap.gc_mode;
}

(* base, safe and checked under stop-the-world, plus safe under the
   generational and incremental collectors *)
let cell_shapes =
  Gcheap.Heap.
    [
      (B.Base, Stw); (B.Safe, Stw); (B.Debug_checked, Stw); (B.Safe, Gen); (B.Safe, Inc);
    ]

let cells_of ~program ~source ~expected_prefix ~checked_fails =
  List.map
    (fun (config, gc_mode) ->
      {
        c_program = program;
        c_source = source;
        c_expected_prefix = expected_prefix;
        c_checked_fails = checked_fails;
        c_config = config;
        c_gc_mode = gc_mode;
      })
    cell_shapes

let cell_name c =
  Printf.sprintf "%s/%s/%s" c.c_program (B.config_id c.c_config)
    (Gcheap.Heap.gc_mode_name c.c_gc_mode)

let paper_cells ~seed =
  shuffle ~seed
    (List.concat_map
       (fun (w : R.workload) ->
         cells_of ~program:w.R.w_name ~source:w.R.w_source
           ~expected_prefix:(Some w.R.w_expected_prefix)
           ~checked_fails:w.R.w_checked_fails)
       R.paper_suite)

let stress_targets ~seed = shuffle ~seed Stress.Corpus.examples

(* Corpus targets double as verification cells for the stress workload:
   no reference output, so only the cross-mode and checked-build
   agreements are checked. *)
let target_cells (ts : Stress.Corpus.target list) =
  List.concat_map
    (fun (t : Stress.Corpus.target) ->
      cells_of ~program:t.Stress.Corpus.t_name ~source:t.Stress.Corpus.t_source
        ~expected_prefix:None ~checked_fails:t.Stress.Corpus.t_checked_fails)
    ts

let generated_sources ~seed n = Service.Trafficgen.source_pool ~seed n

let generated_cells ~seed n =
  List.concat
    (List.mapi
       (fun i source ->
         cells_of ~program:(Printf.sprintf "gen%d" i) ~source
           ~expected_prefix:None ~checked_fails:false)
       (generated_sources ~seed:(seed + 7919) n))

(* A cold build: one source under one configuration at one register
   count.  sparc2 and sparc10 share an artifact key (32 registers), so
   the two distinct register files are 32 and pentium90's 8. *)
type build_job = {
  j_program : string;
  j_source : string;
  j_config : B.config;
  j_nregs : int;
}

let register_counts = [ 32; 8 ]

let build_jobs ~seed ~generated =
  let sources =
    List.map (fun (w : R.workload) -> (w.R.w_name, w.R.w_source)) R.paper_suite
    @ List.mapi
        (fun i s -> (Printf.sprintf "gen%d" i, s))
        (generated_sources ~seed generated)
  in
  shuffle ~seed
    (List.concat_map
       (fun (program, source) ->
         List.concat_map
           (fun config ->
             List.map
               (fun nregs ->
                 { j_program = program; j_source = source; j_config = config; j_nregs = nregs })
               register_counts)
           B.all_configs)
       sources)

let job_options j = { B.default with B.nregs = j.j_nregs; B.use_cache = false }


(* The byte-level identity of a workload's inputs. *)
let digest_strings xs = Digest.to_hex (Digest.string (String.concat "\x00" xs))

let cell_key c = cell_name c ^ "\x01" ^ c.c_source

let digest_cells cs = digest_strings (List.map cell_key cs)

let digest_jobs js =
  digest_strings
    (List.map
       (fun j ->
         Printf.sprintf "%s:%s:%d:%s" j.j_program (B.config_id j.j_config)
           j.j_nregs j.j_source)
       js)

let digest_traffic reqs =
  digest_strings
    (List.map
       (fun (arrival, r) ->
         string_of_int arrival ^ Telemetry.Json.to_string (Harness.Request.to_json r))
       reqs)

(* Workload sizes. *)

let build_generated = 100  (** generated sources built cold, beside the paper suite *)

let verify_generated = 4  (** generated programs run as verification cells *)

let service_batches = 8  (** offline batches in the seed's service traffic *)

let batch_requests = 250  (** requests per offline batch *)

let replay_batches = 2  (** batches replayed serially in the traced run *)

(* The seed's service traffic: [service_batches] streams of generated
   programs (with the generator's chaos and malformed fractions), each
   from its own sub-seed.  A stream's programs come from one 64-program
   pool, so separate streams keep one pool's cost from deciding a run.
   The paper's workloads are left out of this traffic: rationed into the
   [All] mix, nine of them per thousand requests take about half the
   serial time and make a batch's cost vary twofold with the seed;
   paper-run measures them. *)
let service_traffic ~seed =
  List.init service_batches (fun i ->
      Service.Trafficgen.generate
        {
          Service.Trafficgen.default_spec with
          Service.Trafficgen.g_requests = batch_requests;
          g_seed = (seed * 16) + i;
          g_mix = Service.Trafficgen.Generated;
        })

let attribution_cap = 200  (** build inputs split by layer in service-mix's traced run *)

let digest ~workload ~seed =
  match workload with
  | "paper-run" -> Some (digest_cells (paper_cells ~seed))
  | "gc-stress" ->
      Some
        (digest_strings
           (List.map
              (fun (t : Stress.Corpus.target) ->
                t.Stress.Corpus.t_name ^ "\x01" ^ t.Stress.Corpus.t_source)
              (stress_targets ~seed)))
  | "build-cold" ->
      Some
        (digest_strings
           [
             digest_jobs (build_jobs ~seed ~generated:build_generated);
             digest_cells (generated_cells ~seed verify_generated);
           ])
  | "service-mix" ->
      Some
        (digest_strings
           [
             digest_traffic (List.concat (service_traffic ~seed));
             digest_cells (generated_cells ~seed verify_generated);
           ])
  | _ -> None
