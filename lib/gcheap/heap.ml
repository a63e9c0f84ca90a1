(** Conservative mark-sweep collector in the style of [Boehm95].

    - size-class allocator over uniform-object pages ({!Block});
    - every object is allocated with at least one extra byte, so that
      legal one-past-the-end pointers still map to the right object
      (paper, "Source Checking": "we handle [one past the end] by
      allocating all heap objects with at least one extra byte");
    - conservative root scanning: any word whose value lies inside an
      allocated heap object (interior pointers included) marks that object;
    - swept objects are poisoned so that the VM detects premature
      reclamation as a hard fault — this is how the hazard experiments
      observe GC-unsafety;
    - [GC_base] / [GC_same_obj] / [GC_pre_incr] / [GC_post_incr]: the
      checking primitives of the paper's debugging mode;
    - an optional generational mode: objects carry a per-slot age, minor
      collections scan only young objects plus roots and the dirty cards
      of a page-granularity remembered set, and survivors are promoted
      after [promote_after] minor cycles.  Stop-the-world full collection
      remains the default and is bit-identical to the non-generational
      collector;
    - a page-segregated bump-pointer nursery for the generational and
      incremental modes: new small collectable objects are carved off
      young single-page blocks by a bump cursor (no per-object zeroing —
      pages are zeroed when claimed), whole-page cohorts age together,
      wholly dead nursery pages return to the reclaim pool, and pages
      whose cohort reaches [promote_after] are promoted in place (the
      collector is conservative, so objects can never move).  The
      remembered set then tracks only old-generation pages. *)

type gc_mode = Stw | Gen | Inc

let gc_mode_name = function Stw -> "stw" | Gen -> "gen" | Inc -> "inc"

let gc_mode_of_string = function
  | "stw" -> Some Stw
  | "gen" -> Some Gen
  | "inc" | "incremental" -> Some Inc
  | _ -> None

type generation = Minor | Major

type oom_policy = Trap | Collect_expand

let oom_policy_name = function
  | Trap -> "trap"
  | Collect_expand -> "collect-expand"

let oom_policy_of_string = function
  | "trap" -> Some Trap
  | "collect-expand" | "collect_expand" -> Some Collect_expand
  | _ -> None

type config = {
  mutable all_interior : bool;
      (** recognize interior pointers everywhere (the paper's default
          collector configuration); when false, interior pointers are valid
          only from roots — the "Extensions" section mode *)
  mutable poison : bool;  (** fill freed objects with 0xDB *)
  mutable gc_threshold : int;  (** collect after this many bytes allocated *)
  mutable generational : bool;
      (** enable minor collections and the store barrier's dirty cards *)
  mutable minor_threshold : int;
      (** bytes allocated between minor collections (generational mode) *)
  mutable promote_after : int;
      (** minor collections an object must survive to become old *)
  mutable heap_limit_words : int;
      (** hard arena ceiling in words; [0] (the default) is unlimited *)
  mutable oom_policy : oom_policy;
      (** what an allocation failure does: raise {!Heap_exhausted}
          immediately ([Trap]), or run an emergency full collection,
          retry, grow within the limit, and only then raise
          ([Collect_expand], Boehm's collect-then-expand) *)
  mutable incremental : bool;
      (** enable the SATB write barrier and allocate-black so an
          {!Incremental} marking cycle can stay in flight across
          mutator steps *)
  mutable pause_budget_words : int;
      (** words of collector work (scanning + sweeping) one incremental
          step may perform before yielding back to the mutator *)
  mutable nursery_pages : int;
      (** pages of bump-allocated nursery a generational or incremental
          heap may open between collections before a minor cycle is due;
          {!create} raises anything below 1 to 1 *)
}

type stats = {
  mutable collections : int;
  mutable minor_collections : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable words_scanned : int;
  mutable base_lookups : int;
  mutable same_obj_checks : int;
  mutable check_failures : int;
  mutable promoted : int;
  mutable cards_scanned : int;
  mutable emergency_collections : int;
  mutable injected_failures : int;
  mutable increments : int;
  mutable final_marks : int;
  mutable barrier_grays : int;
  mutable budget_overruns : int;
  mutable inc_max_pause_words : int;
  mutable abandoned_cycles : int;
}

(** Where an incremental marking cycle stands.  [Idle] outside a cycle;
    [Marking] while gray ranges remain to drain; [Sweeping] while swept
    blocks remain.  Only ever non-[Idle] on an [incremental] heap. *)
type phase = Idle | Marking | Sweeping

type t = {
  mem : Mem.t;
  map : Page_map.t;
  free_lists : (int * Block.kind, int list ref) Hashtbl.t;
      (** (class size, kind) -> free slot addresses *)
  mutable large_blocks : Block.t list;
  mutable all_blocks : Block.t list;  (** every block ever created *)
  config : config;
  stats : stats;
  mutable since_gc : int;
      (** live-growth estimate driving major collections: raw bytes
          allocated, credited with bytes reclaimed by minor collections
          (Boehm-style), reset by a full collection *)
  mutable since_minor : int;  (** bytes allocated since any collection *)
  mutable dirty : Bytes.t;
      (** remembered set: one byte per arena page (indexed by
          [addr lsr Mem.page_bits]), set by {!note_store} *)
  mutable roots : (int * int) list;
      (** extra permanent root ranges [start, stop) — e.g. the VM stack *)
  mutable on_free : (addr:int -> bytes:int -> unit) option;
      (** observer called for every object the sweeper reclaims *)
  mutable failpoints : Failpoint.t;
      (** injected allocation failures (chaos harness); [Never] costs
          one branch per allocation *)
  mutable on_oom : (unit -> unit) option;
      (** emergency-collection hook: the embedder (the VM) installs a
          closure that collects with its full root set; [None] falls
          back to collecting over the registered ranges only *)
  mutable free_pages : (int * int) list;
      (** reclaim pool: [(start, pages)] runs of pages retired from
          fully-empty blocks by the emergency path and from wholly dead
          nursery pages, sorted by start and coalesced; always empty on
          limit-free stop-the-world executions *)
  mutable phase : phase;
      (** incremental-cycle phase; [Idle] unless an {!Incremental} cycle
          is in flight *)
  mutable gray : (int * int) list;
      (** incremental mark stack: gray ranges [start, stop) still to
          scan, with partial push-back when a budget expires mid-range *)
  mutable sweep_pending : Block.t list;
      (** blocks the in-flight incremental cycle has yet to sweep *)
  mutable sweep_cursor : int;
      (** next slot to examine in the head of [sweep_pending] — lets a
          sweep slice stop mid-block exactly at the pause budget *)
  mutable young_blocks : Block.t list;
      (** nursery: the young single-page blocks currently in service
          (open bump targets plus sealed survivor cohorts) *)
  mutable aging_blocks : Block.t list;
      (** old-generation blocks that may hold still-young slots (free-list
          reuse restarts a slot at age 0), so a minor sweep can visit
          exactly the blocks where young objects can live *)
  nursery_cursors : (int * Block.kind, Block.t) Hashtbl.t;
      (** (class size, kind) -> the young block the bump allocator is
          currently filling *)
  mutable nursery_opened : int;
      (** young pages opened since the last collection — the nursery
          occupancy trigger for minor cycles *)
  mutable dirty_index : int list;
      (** indices of pages whose card byte may be set, so card scans and
          {!recompute_cards} walk the dirty subset instead of the whole
          arena; may hold stale (since-cleaned) entries, which readers
          skip by re-checking the byte *)
}

exception Check_failure of string
(** raised by GC_same_obj and friends in checked mode *)

exception Heap_exhausted of string
(** the structured out-of-memory outcome: the heap limit blocks a
    needed growth (after emergency collection and retry under
    [Collect_expand]), or an injected failure fires under [Trap] *)

let default_config () =
  {
    all_interior = true;
    poison = true;
    gc_threshold = 256 * 1024;
    generational = false;
    minor_threshold = 32 * 1024;
    promote_after = 2;
    heap_limit_words = 0;
    oom_policy = Collect_expand;
    incremental = false;
    pause_budget_words = 1024;
    nursery_pages = 8;
  }

let create ?(config = default_config ()) () =
  config.nursery_pages <- max 1 config.nursery_pages;
  {
    mem = Mem.create ();
    map = Page_map.create ();
    free_lists = Hashtbl.create 32;
    large_blocks = [];
    all_blocks = [];
    config;
    stats =
      {
        collections = 0;
        minor_collections = 0;
        bytes_allocated = 0;
        objects_allocated = 0;
        objects_freed = 0;
        bytes_freed = 0;
        words_scanned = 0;
        base_lookups = 0;
        same_obj_checks = 0;
        check_failures = 0;
        promoted = 0;
        cards_scanned = 0;
        emergency_collections = 0;
        injected_failures = 0;
        increments = 0;
        final_marks = 0;
        barrier_grays = 0;
        budget_overruns = 0;
        inc_max_pause_words = 0;
        abandoned_cycles = 0;
      };
    since_gc = 0;
    since_minor = 0;
    dirty = Bytes.create 0;
    roots = [];
    on_free = None;
    failpoints = Failpoint.Never;
    on_oom = None;
    free_pages = [];
    phase = Idle;
    gray = [];
    sweep_pending = [];
    sweep_cursor = 0;
    young_blocks = [];
    aging_blocks = [];
    nursery_cursors = Hashtbl.create 16;
    nursery_opened = 0;
    dirty_index = [];
  }

(** Is the bump-pointer nursery in service?  Only the generational and
    incremental modes segregate generations; stop-the-world heaps keep
    the seed allocator bit for bit. *)
let nursery_enabled t = t.config.generational || t.config.incremental

let add_root_range t start stop = t.roots <- (start, stop) :: t.roots

(* ------------------------------------------------------------------ *)
(* Remembered set: dirty cards at page granularity                     *)
(* ------------------------------------------------------------------ *)

let page_index addr = addr lsr Mem.page_bits

let page_is_dirty t addr =
  let p = page_index addr in
  p < Bytes.length t.dirty && Bytes.get t.dirty p <> '\000'

let mark_page_dirty t p =
  if p >= Bytes.length t.dirty then begin
    let grown = Bytes.make (max (p + 1) ((2 * Bytes.length t.dirty) + 64)) '\000' in
    Bytes.blit t.dirty 0 grown 0 (Bytes.length t.dirty);
    t.dirty <- grown
  end;
  (* index a page only on the clean->dirty edge, so the index stays
     duplicate-free between recomputes *)
  if Bytes.get t.dirty p = '\000' then t.dirty_index <- p :: t.dirty_index;
  Bytes.set t.dirty p '\001'

(* Walk the dirty-page index, visiting each genuinely dirty page once
   (stale and duplicated entries are skipped).  This is what shrinks the
   card scans from O(arena pages) to O(dirty pages). *)
let iter_dirty_pages t f =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if
        (not (Hashtbl.mem seen p))
        && p < Bytes.length t.dirty
        && Bytes.get t.dirty p <> '\000'
      then begin
        Hashtbl.replace seen p ();
        f p
      end)
    t.dirty_index

(* Is the slot's object old (survived [promote_after] minor cycles)? *)
let is_old t blk i = Block.age blk i >= t.config.promote_after

(* Snapshot-at-the-beginning shading: a word about to be overwritten may
   hold the last reference to an object that was reachable when the
   in-flight incremental cycle took its snapshot.  Gray it (mark + push
   its range) before the store lands, so the cycle's mark set stays a
   superset of the snapshot's reachable set. *)
let gray_old_value t v =
  match Page_map.find t.map v with
  | None -> ()
  | Some blk -> (
      match Block.slot_of_addr blk v with
      | None -> ()
      | Some i ->
          if
            Block.is_allocated blk i
            && (t.config.all_interior || v = Block.slot_addr blk i)
            && not (Block.is_marked blk i)
          then begin
            Block.set_marked blk i true;
            t.stats.barrier_grays <- t.stats.barrier_grays + 1;
            if Block.scanned blk then
              t.gray <-
                ( Block.slot_addr blk i,
                  Block.slot_addr blk i + blk.Block.blk_obj_size )
                :: t.gray
          end)

(** The store write-barrier: record writes that land on old-generation
    collectable pages so those pages are rescanned by the next minor
    collection.  Young (nursery) pages need no card — every minor scans
    the whole nursery — and stacks, statics and registers are roots.
    Writes that survive inside an object promoted later are covered by
    promotion dirtying the promoted slot's pages.  A single branch when
    generational mode is off; charges no VM cycles either way. *)
let note_store t addr len =
  (* SATB shading runs first: the generational branch below never writes
     memory, but keeping the read of the doomed old values ahead of any
     other bookkeeping makes the before-the-store contract obvious.  The
     aligned walk over-approximates [addr, addr+len) to whole words —
     shading a neighbouring word's value is merely conservative. *)
  (if t.phase = Marking && len > 0 then begin
     let a = ref (addr / 8 * 8) in
     let stop = addr + len in
     let limit = Mem.limit t.mem in
     while !a < stop do
       if !a + 8 <= limit then gray_old_value t (Mem.load_word t.mem !a);
       a := !a + 8
     done
   end);
  if t.config.generational && len > 0 then
    (* page-segregated generations make the barrier a page-kind test:
       any non-young collectable page the write touches is dirtied
       outright — no slot or age resolution, and straddling
       (cross-object) writes are covered by construction because every
       touched page gets its card.  Over-dirtying a page whose old block
       holds a reused young slot is merely conservative:
       [recompute_cards] cleans it at the next collection. *)
    for p = page_index addr to page_index (addr + len - 1) do
      match Page_map.find t.map (p lsl Mem.page_bits) with
      | Some blk when Block.collectable blk && not blk.Block.blk_young ->
          mark_page_dirty t p
      | Some _ | None -> ()
    done

(** Age of the allocated object at [addr] in minor collections survived
    ([None] outside allocated objects). *)
let slot_age t addr =
  match Page_map.find t.map addr with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk addr with
      | Some i when Block.is_allocated blk i -> Some (Block.age blk i)
      | Some _ | None -> None)

(* ------------------------------------------------------------------ *)
(* Size classes                                                        *)
(* ------------------------------------------------------------------ *)

let granule = 16

let max_small = 2048

(* Class sizes: multiples of 16 up to 256, then powers of two to 2048. *)
let class_size n =
  if n <= 256 then (n + granule - 1) / granule * granule
  else
    let rec pow2 c = if c >= n then c else pow2 (c * 2) in
    pow2 512

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let free_list t cls kind =
  match Hashtbl.find_opt t.free_lists (cls, kind) with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.free_lists (cls, kind) l;
      l

(* ------------------------------------------------------------------ *)
(* Pointer identification                                              *)
(* ------------------------------------------------------------------ *)

(** [base_of t addr] maps any address inside an allocated heap object to the
    object's base address (GC_base).  Returns [None] for addresses outside
    the heap, in free slots, or one-before-the-object. *)
let base_of t addr =
  t.stats.base_lookups <- t.stats.base_lookups + 1;
  match Page_map.find t.map addr with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk addr with
      | None -> None
      | Some i -> if Block.is_allocated blk i then Some (Block.slot_addr blk i) else None)

(** Object extent [base, base + rounded size) for a heap address. *)
let extent_of t addr =
  match Page_map.find t.map addr with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk addr with
      | None -> None
      | Some i ->
          if Block.is_allocated blk i then
            Some (Block.slot_addr blk i, blk.Block.blk_obj_size)
          else None)

(** Is [v] a plausible pointer for root scanning?  Any value inside an
    allocated object qualifies when [all_interior] is set; otherwise only
    base pointers qualify (used when scanning heap objects in the
    "Extensions" mode). *)
let plausible_pointer ?(from_root = true) t v =
  match Page_map.find t.map v with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk v with
      | None -> None
      | Some i ->
          if not (Block.is_allocated blk i) then None
          else
            let base = Block.slot_addr blk i in
            if t.config.all_interior || from_root || v = base then Some (blk, i)
            else None)

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Aligned word walk over [start, stop), as a conservative collector does.
   An unaligned range's last bytes do not fill a word: the word holding
   them is still scanned (a pointer's first bytes may sit there), provided
   it lies inside the arena. *)
let iter_range_words t start stop f =
  let a = ref ((start + 7) / 8 * 8) in
  while !a + 8 <= stop do
    f !a (Mem.load_word t.mem !a);
    a := !a + 8
  done;
  if !a < stop && !a + 8 <= Mem.limit t.mem then f !a (Mem.load_word t.mem !a)

(* Does any word of [start, stop) hold a (conservative) pointer to a young
   collectable object?  Same resolution rules as heap-object scanning. *)
let range_has_young_ref t start stop =
  let found = ref false in
  iter_range_words t start stop (fun _ v ->
      if not !found then
        match plausible_pointer ~from_root:false t v with
        | Some (blk, i) when Block.collectable blk -> found := not (is_old t blk i)
        | Some _ | None -> ());
  !found

let mark_and_trace ?(minor = false) t ~extra_roots ~extra_ranges =
  let stack = Stack.create () in
  let consider ~from_root v =
    match plausible_pointer ~from_root t v with
    | None -> ()
    | Some (blk, i) ->
        (* a minor cycle collects only the young generation: old objects
           are implicitly live, and references out of them are covered by
           the dirty cards scanned below *)
        if minor && Block.collectable blk && is_old t blk i then ()
        else if not (Block.is_marked blk i) then begin
          Block.set_marked blk i true;
          if Block.scanned blk then
            Stack.push (Block.slot_addr blk i, blk.Block.blk_obj_size) stack
        end
  in
  let scan_range ~from_root start stop =
    iter_range_words t start stop (fun _ v ->
        t.stats.words_scanned <- t.stats.words_scanned + 1;
        consider ~from_root v)
  in
  (* roots: explicit word values (the VM register file) ... *)
  List.iter (fun v -> consider ~from_root:true v) extra_roots;
  (* ... registered and per-collection ranges (the live stack prefix) ... *)
  List.iter (fun (s, e) -> scan_range ~from_root:true s e) t.roots;
  List.iter (fun (s, e) -> scan_range ~from_root:true s e) extra_ranges;
  (* ... and all uncollectable (statics-like) objects. *)
  List.iter
    (fun blk ->
      if Block.root_scanned blk then
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then begin
            Block.set_marked blk i true;
            let a = Block.slot_addr blk i in
            scan_range ~from_root:true a (a + blk.Block.blk_obj_size)
          end
        done)
    t.all_blocks;
  (* ... and, on a minor cycle, the old objects on dirty cards: the
     remembered set stands in for the unscanned rest of the old
     generation *)
  if minor then
    iter_dirty_pages t (fun p ->
        t.stats.cards_scanned <- t.stats.cards_scanned + 1;
        let page_start = p lsl Mem.page_bits in
        let page_stop = page_start + Mem.page_size in
        match Page_map.find t.map page_start with
        | Some blk when Block.collectable blk && Block.scanned blk ->
            for i = 0 to blk.Block.blk_count - 1 do
              if Block.is_allocated blk i && is_old t blk i then begin
                let s = max (Block.slot_addr blk i) page_start in
                let e =
                  min (Block.slot_addr blk i + blk.Block.blk_obj_size) page_stop
                in
                if s < e then scan_range ~from_root:false s e
              end
            done
        | Some _ | None -> ());
  (* stack blocks are never swept; mark them so sweeping logic is uniform *)
  List.iter
    (fun blk ->
      if not (Block.collectable blk) then
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then Block.set_marked blk i true
        done)
    t.all_blocks;
  (* trace *)
  while not (Stack.is_empty stack) do
    let start, len = Stack.pop stack in
    scan_range ~from_root:false start (start + len)
  done

(* Conservatively mark the pages of a slot dirty (used on promotion: the
   freshly old object may hold young pointers on cards that were clean
   while it was young and scanned unconditionally). *)
let dirty_slot_pages t blk i =
  let s = Block.slot_addr blk i in
  for p = page_index s to page_index (s + blk.Block.blk_obj_size - 1) do
    mark_page_dirty t p
  done

(* ------------------------------------------------------------------ *)
(* Reclaim pool plumbing and nursery page lifecycle                    *)
(* ------------------------------------------------------------------ *)

(* A page run leaving service must shed its cards: a pool page reused by
   a fresh block must not be born dirty, dragging its new slots into
   every minor until [recompute_cards] happens to clean it. *)
let clear_cards_in_run t lo pages =
  for p = page_index lo to page_index lo + pages - 1 do
    if p < Bytes.length t.dirty then Bytes.set t.dirty p '\000'
  done

(* Sort and coalesce adjacent pool runs so a multi-page request can be
   carved out of neighbouring single-page retirements. *)
let coalesce_pool t =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) t.free_pages in
  t.free_pages <-
    List.rev
      (List.fold_left
         (fun acc (s, p) ->
           match acc with
           | (ps, pp) :: rest when ps + (pp * Mem.page_size) = s ->
               (ps, pp + p) :: rest
           | _ -> (s, p) :: acc)
         [] sorted)

(* Drop the bump cursor if it points at [blk] (the block is leaving the
   nursery, by promotion or retirement). *)
let drop_cursor t blk =
  let key = (blk.Block.blk_obj_size, blk.Block.blk_kind) in
  match Hashtbl.find_opt t.nursery_cursors key with
  | Some b when b == blk -> Hashtbl.remove t.nursery_cursors key
  | Some _ | None -> ()

(* A wholly dead nursery page goes back to the reclaim pool: the page
   map forgets it and its (already swept) pages become claimable by any
   later block.  The caller coalesces the pool when the batch is done. *)
let retire_young_block t blk =
  drop_cursor t blk;
  Page_map.clear_block t.map blk;
  t.all_blocks <- List.filter (fun b -> not (b == blk)) t.all_blocks;
  t.young_blocks <- List.filter (fun b -> not (b == blk)) t.young_blocks;
  clear_cards_in_run t blk.Block.blk_start blk.Block.blk_pages;
  t.free_pages <- (blk.Block.blk_start, blk.Block.blk_pages) :: t.free_pages

(* Promote a surviving nursery page in place: the block joins the old
   generation (the collector is conservative, so survivors cannot be
   copied out), and its dead and never-bumped slots join the size-class
   free lists like any other old block's. *)
let promote_young_block t blk =
  drop_cursor t blk;
  blk.Block.blk_young <- false;
  blk.Block.blk_bump <- 0;
  t.young_blocks <- List.filter (fun b -> not (b == blk)) t.young_blocks;
  let fl = free_list t blk.Block.blk_obj_size blk.Block.blk_kind in
  for i = blk.Block.blk_count - 1 downto 0 do
    if not (Block.is_allocated blk i) then begin
      Block.set_age blk i 0;
      fl := Block.slot_addr blk i :: !fl
    end
  done

(* Seal the bump cursors and return wholly dead nursery pages to the
   pool.  Runs after every collection, so a completed cycle always
   leaves the nursery parseable: open bump regions never survive a
   collection, and dead cohorts never linger. *)
let retire_dead_young t =
  Hashtbl.reset t.nursery_cursors;
  t.nursery_opened <- 0;
  let dead =
    List.filter
      (fun blk ->
        let live = ref false in
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then live := true
        done;
        not !live)
      t.young_blocks
  in
  if dead <> [] then begin
    List.iter (fun blk -> retire_young_block t blk) dead;
    coalesce_pool t
  end

(** Close out the nursery entirely: dead young pages return to the pool
    and surviving young pages are promoted in place.  The incremental
    collector calls this when a cycle completes — its sliced sweep has
    no minor-cycle aging, so a finished cycle tenures what survived. *)
let flush_nursery t =
  retire_dead_young t;
  List.iter
    (fun blk ->
      for i = 0 to blk.Block.blk_count - 1 do
        if Block.is_allocated blk i then begin
          t.stats.promoted <- t.stats.promoted + 1;
          if t.config.generational then begin
            Block.set_age blk i t.config.promote_after;
            dirty_slot_pages t blk i
          end
        end
      done;
      promote_young_block t blk)
    t.young_blocks

let sweep ?(minor = false) t =
  let freed = ref 0 and freed_bytes = ref 0 in
  let sweep_block blk =
    if Block.collectable blk then
      for i = 0 to blk.Block.blk_count - 1 do
        if Block.is_allocated blk i then
          if minor && is_old t blk i then
            (* old objects are not collected by a minor cycle *)
            ()
          else if not (Block.is_marked blk i) then begin
            Block.set_allocated blk i false;
            (* age hygiene: a freed slot restarts at age 0, so whatever
               reallocates it gets a genuinely young object *)
            Block.set_age blk i 0;
            incr freed;
            freed_bytes := !freed_bytes + blk.Block.blk_req.(i);
            let addr = Block.slot_addr blk i in
            (match t.on_free with
            | Some f -> f ~addr ~bytes:blk.Block.blk_req.(i)
            | None -> ());
            if t.config.poison then
              Mem.fill t.mem addr blk.Block.blk_obj_size '\xDB';
            (* small-class slots return to their free list; large blocks
               (obj_size > max_small, even single-page ones) stay in
               [large_blocks] for whole-block reuse and must never leak
               onto a size-class list; nursery slots are bump-allocated
               and never reused in place, so young blocks stay off the
               free lists (their pages are reclaimed or promoted whole) *)
            if blk.Block.blk_obj_size <= max_small && not blk.Block.blk_young
            then begin
              let fl = free_list t blk.Block.blk_obj_size blk.Block.blk_kind in
              fl := addr :: !fl
            end
          end
          else if minor then begin
            (* young survivor: one minor cycle older *)
            Block.set_age blk i (Block.age blk i + 1);
            if is_old t blk i && not blk.Block.blk_young then begin
              t.stats.promoted <- t.stats.promoted + 1;
              dirty_slot_pages t blk i
            end
          end
      done
  in
  if minor then begin
    (* segregated generations let a minor sweep touch only the blocks
       where young objects can live: the nursery pages themselves plus
       old blocks holding reused (age-restarted) slots and young large
       objects *)
    let young = t.young_blocks in
    List.iter sweep_block young;
    List.iter sweep_block t.aging_blocks;
    (* nursery cohorts act per page: a page with no survivors returns to
       the reclaim pool; a page whose cohort has now survived
       [promote_after] minors is promoted in place *)
    let retired = ref false in
    List.iter
      (fun blk ->
        let survivors = ref 0 and cohort_age = ref 0 in
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then begin
            incr survivors;
            cohort_age := Block.age blk i
          end
        done;
        if !survivors = 0 then begin
          retire_young_block t blk;
          retired := true
        end
        else if !cohort_age >= t.config.promote_after then begin
          t.stats.promoted <- t.stats.promoted + !survivors;
          for i = 0 to blk.Block.blk_count - 1 do
            if Block.is_allocated blk i then dirty_slot_pages t blk i
          done;
          promote_young_block t blk
        end)
      young;
    if !retired then coalesce_pool t;
    (* an aging block with no young slot left drops out of the minor set *)
    t.aging_blocks <-
      List.filter
        (fun blk ->
          let has_young = ref false in
          for i = 0 to blk.Block.blk_count - 1 do
            if Block.is_allocated blk i && not (is_old t blk i) then
              has_young := true
          done;
          if not !has_young then blk.Block.blk_aging <- false;
          !has_young)
        t.aging_blocks
  end
  else List.iter sweep_block t.all_blocks;
  t.stats.objects_freed <- t.stats.objects_freed + !freed;
  t.stats.bytes_freed <- t.stats.bytes_freed + !freed_bytes;
  (!freed, !freed_bytes)

(* Clean every dirty card that no longer holds an old→young reference.
   Keeping exactly the cards that do maintains remembered-set
   completeness between collections: stores dirty their cards eagerly and
   ages only ever increase, so an old→young reference can appear on a
   clean card only through a store (barrier) or a promotion (which
   dirties the promoted slot's pages). *)
let recompute_cards t =
  let retained = ref [] in
  iter_dirty_pages t (fun p ->
      let page_start = p lsl Mem.page_bits in
      let page_stop = page_start + Mem.page_size in
      let needed = ref false in
      (match Page_map.find t.map page_start with
      | Some blk
        when Block.collectable blk && Block.scanned blk
             && not blk.Block.blk_young ->
          for i = 0 to blk.Block.blk_count - 1 do
            if
              (not !needed)
              && Block.is_allocated blk i
              && is_old t blk i
            then begin
              let s = max (Block.slot_addr blk i) page_start in
              let e =
                min (Block.slot_addr blk i + blk.Block.blk_obj_size) page_stop
              in
              if s < e && range_has_young_ref t s e then needed := true
            end
          done
      | Some _ | None -> ());
      if !needed then retained := p :: !retained
      else Bytes.set t.dirty p '\000');
  t.dirty_index <- !retained

(** Soundly abandon an in-flight incremental cycle: drop the gray stack
    and the sweep cursor and return to [Idle].  Mark bits are left as
    they are — every full collection starts by clearing them — so the
    heap is exactly what a stop-the-world collector expects.  A no-op
    outside a cycle. *)
let abandon_cycle t =
  if t.phase <> Idle then begin
    t.phase <- Idle;
    t.gray <- [];
    t.sweep_pending <- [];
    t.sweep_cursor <- 0;
    t.stats.abandoned_cycles <- t.stats.abandoned_cycles + 1
  end

(** Run a collection.  [extra_roots] are word values scanned in addition
    to the registered root ranges — the VM passes its register file here.
    [generation] defaults to [Major] (a full stop-the-world cycle);
    [Minor] is honoured only when the heap is generational.  Any
    in-flight incremental cycle is soundly abandoned first: emergency,
    explicit and forced collections must behave exactly as on a
    stop-the-world heap. *)
let collect ?(generation = Major) ?(extra_roots = []) ?(extra_ranges = []) t =
  abandon_cycle t;
  let minor = generation = Minor && t.config.generational in
  t.stats.collections <- t.stats.collections + 1;
  if minor then t.stats.minor_collections <- t.stats.minor_collections + 1;
  List.iter Block.clear_marks t.all_blocks;
  mark_and_trace ~minor t ~extra_roots ~extra_ranges;
  let freed, freed_bytes = sweep ~minor t in
  (* every completed collection seals the bump cursors (cohort pages must
     not mix allocation windows) and returns dead nursery pages to the
     pool, so emergency and forced full cycles always leave the nursery
     in a state the next cycle can parse; a no-op on stop-the-world
     heaps, which never open a nursery page *)
  retire_dead_young t;
  if t.config.generational then recompute_cards t;
  (* Boehm-style live-growth trigger: a major collection is due when the
     heap has *grown* by [gc_threshold] bytes, so bytes a minor cycle
     gives back are credited rather than counted toward the next major *)
  if minor then t.since_gc <- max 0 (t.since_gc - freed_bytes)
  else t.since_gc <- 0;
  t.since_minor <- 0;
  freed

(** Should the allocator trigger a (major) collection? *)
let should_collect t = t.since_gc >= t.config.gc_threshold

(** Should the allocator trigger a minor collection?  Never true outside
    generational mode.  Filling the configured number of nursery pages
    is also a trigger: the minor cost tracks nursery occupancy, not just
    bytes. *)
let should_collect_minor t =
  t.config.generational
  && (t.since_minor >= t.config.minor_threshold
     || t.nursery_opened >= t.config.nursery_pages)

(* ------------------------------------------------------------------ *)
(* Allocation (under the heap ceiling)                                 *)
(* ------------------------------------------------------------------ *)

let heap_limit_bytes t =
  if t.config.heap_limit_words <= 0 then max_int
  else t.config.heap_limit_words * 8

(* Would growing the arena by [pages] fresh pages overrun the ceiling? *)
let growth_exceeds_limit t pages =
  Mem.limit t.mem + (pages * Mem.page_size) > heap_limit_bytes t

(* Retire every collectable block with no live slot: its slots leave
   their free list, the page map forgets its pages, and the page run
   joins the reclaim pool for reuse by any later block of any size
   class.  This is what lets an emergency collection rescue a *large*
   allocation whose pages are tied up in drained small-class blocks —
   without it, large requests can only reuse an exact-size freed large
   block, and the collect-expand policy would be no stronger than trap
   for them.  Runs only on the emergency path, so limit-free executions
   never see it. *)
let reclaim_empty_blocks t =
  let is_empty blk =
    Block.collectable blk
    &&
    let live = ref false in
    for i = 0 to blk.Block.blk_count - 1 do
      if Block.is_allocated blk i then live := true
    done;
    not !live
  in
  let retired, kept = List.partition is_empty t.all_blocks in
  if retired <> [] then begin
    t.all_blocks <- kept;
    t.large_blocks <-
      List.filter (fun b -> not (List.memq b retired)) t.large_blocks;
    (* nursery bookkeeping must not dangle: a retired young block leaves
       the young set and any bump cursor pointing at it *)
    t.young_blocks <-
      List.filter (fun b -> not (List.memq b retired)) t.young_blocks;
    t.aging_blocks <-
      List.filter (fun b -> not (List.memq b retired)) t.aging_blocks;
    List.iter
      (fun blk ->
        drop_cursor t blk;
        Page_map.clear_block t.map blk;
        let lo = blk.Block.blk_start in
        let hi = lo + (blk.Block.blk_pages * Mem.page_size) in
        if blk.Block.blk_obj_size <= max_small then begin
          let fl = free_list t blk.Block.blk_obj_size blk.Block.blk_kind in
          fl := List.filter (fun a -> a < lo || a >= hi) !fl
        end;
        clear_cards_in_run t lo blk.Block.blk_pages;
        t.free_pages <- (lo, blk.Block.blk_pages) :: t.free_pages)
      retired;
    coalesce_pool t
  end

(* Best-fit carve from the reclaim pool.  Reused pages are re-zeroed so
   a pool-served block is indistinguishable from fresh growth. *)
let take_pages t pages =
  let best = ref None in
  List.iter
    (fun (s, p) ->
      if p >= pages then
        match !best with
        | Some (_, bp) when bp <= p -> ()
        | _ -> best := Some (s, p))
    t.free_pages;
  match !best with
  | None -> None
  | Some (s, p) ->
      t.free_pages <- List.filter (fun (s', _) -> s' <> s) t.free_pages;
      if p > pages then
        t.free_pages <-
          (s + (pages * Mem.page_size), p - pages) :: t.free_pages;
      Mem.fill t.mem s (pages * Mem.page_size) '\000';
      (* defense in depth against stale cards: the run was cleaned when
         retired, but a reused page must never be born dirty *)
      clear_cards_in_run t s pages;
      Some s

(** The collect-expand policy's emergency collection: a full,
    mode-independent cycle.  Runs through the embedder's hook when one
    is installed (the VM supplies its register file and live stack
    prefix as roots there); standalone heaps collect over the
    registered root ranges.  Afterwards, fully-empty blocks are retired
    to the reclaim pool. *)
let emergency_collect t =
  t.stats.emergency_collections <- t.stats.emergency_collections + 1;
  (match t.on_oom with
  | Some f -> f ()
  | None -> ignore (collect ~generation:Major t));
  reclaim_empty_blocks t

(* Pages for a new block: the reclaim pool first (those pages are
   already inside the footprint, so the ceiling is irrelevant), then
   fresh growth under the ceiling. *)
let claim_pages t pages =
  match take_pages t pages with
  | Some start -> Some start
  | None ->
      if growth_exceeds_limit t pages then None
      else Some (Mem.grow_pages t.mem pages)

let exhausted t ~req ~pages =
  raise
    (Heap_exhausted
       (Printf.sprintf
          "heap exhausted: %d-byte allocation needs %d fresh page(s), \
           footprint %d of limit %d bytes (%d words, policy %s)"
          req pages (Mem.limit t.mem) (heap_limit_bytes t)
          t.config.heap_limit_words
          (oom_policy_name t.config.oom_policy)))

let new_small_block t cls kind start =
  let count = Mem.page_size / cls in
  let blk = Block.make ~start ~pages:1 ~obj_size:cls ~count ~kind in
  Page_map.set_block t.map blk;
  t.all_blocks <- blk :: t.all_blocks;
  let fl = free_list t cls kind in
  for i = count - 1 downto 0 do
    fl := Block.slot_addr blk i :: !fl
  done

(* The free list for (cls, kind) is empty: claim one page (reclaim pool
   or growth under the ceiling).  An emergency collection can refill
   the free list directly (so the retry needs no page at all) or retire
   empty blocks into the pool; only when neither helps does the
   allocation surface as a structured exhaustion. *)
let refill_small t cls kind fl =
  match claim_pages t 1 with
  | Some start -> new_small_block t cls kind start
  | None -> (
      match t.config.oom_policy with
      | Trap -> exhausted t ~req:cls ~pages:1
      | Collect_expand -> (
          emergency_collect t;
          if !fl = [] then
            match claim_pages t 1 with
            | Some start -> new_small_block t cls kind start
            | None -> exhausted t ~req:cls ~pages:1))

let alloc_large t ~req bytes kind =
  let pages = (bytes + Mem.page_size - 1) / Mem.page_size in
  (* reuse a freed large block of the right size if available *)
  let find_reusable () =
    List.find_opt
      (fun b ->
        b.Block.blk_pages = pages
        && b.Block.blk_kind = kind
        && not (Block.is_allocated b 0))
      t.large_blocks
  in
  let fresh start =
    let b =
      Block.make ~start ~pages ~obj_size:(pages * Mem.page_size) ~count:1
        ~kind
    in
    Page_map.set_block t.map b;
    t.large_blocks <- b :: t.large_blocks;
    t.all_blocks <- b :: t.all_blocks;
    b
  in
  (* a reused block holds its last object's bytes (or the sweeper's
     poison); claimed pages arrive zeroed *)
  let reuse b =
    Mem.fill t.mem b.Block.blk_start (pages * Mem.page_size) '\000';
    b
  in
  let blk =
    match find_reusable () with
    | Some b -> reuse b
    | None -> (
        match claim_pages t pages with
        | Some start -> fresh start
        | None -> (
            (* the needed pages are unavailable: trap, or collect,
               retry whole-block reuse and the (now possibly refilled)
               reclaim pool, and only then give up *)
            match t.config.oom_policy with
            | Trap -> exhausted t ~req ~pages
            | Collect_expand -> (
                emergency_collect t;
                match find_reusable () with
                | Some b -> reuse b
                | None -> (
                    match claim_pages t pages with
                    | Some start -> fresh start
                    | None -> exhausted t ~req ~pages))))
  in
  Block.set_allocated blk 0 true;
  Block.set_age blk 0 0;
  (* allocate-black: objects born during an incremental cycle survive it
     unconditionally (they cannot hold the only path to snapshot-live
     data, and the sliced sweeper must not free them) *)
  if t.phase <> Idle then Block.set_marked blk 0 true;
  (* large objects live outside the nursery but are born young: their
     block must join the aging set so the segregated minor sweep can age
     and promote them *)
  if t.config.generational && not blk.Block.blk_aging then begin
    blk.Block.blk_aging <- true;
    t.aging_blocks <- blk :: t.aging_blocks
  end;
  blk.Block.blk_req.(0) <- req;
  blk.Block.blk_start

(* Open a fresh nursery page for (cls, kind): a young single-page block
   the bump cursor fills front to back.  The page arrived zeroed (fresh
   growth is zeroed; pool reuse re-zeroes), which is what lets the bump
   fast path skip the per-object fill. *)
let open_young_block t cls kind start =
  let count = Mem.page_size / cls in
  let blk = Block.make ~start ~pages:1 ~obj_size:cls ~count ~kind in
  blk.Block.blk_young <- true;
  Page_map.set_block t.map blk;
  t.all_blocks <- blk :: t.all_blocks;
  t.young_blocks <- blk :: t.young_blocks;
  t.nursery_opened <- t.nursery_opened + 1;
  Hashtbl.replace t.nursery_cursors (cls, kind) blk;
  blk

(* Nursery allocation for small collectable objects: the fast path is a
   bump (slot index increment + limit check) with no page-map lookup, no
   slot division and no fill.  When the current page is full, freed
   old-generation slots are drained from the size-class free list before
   any new page is opened — reuse keeps segregation from costing
   footprint — and only then is a fresh young page claimed (reclaim pool
   first, then growth under the ceiling, with the same collect-expand
   fallback as the free-list path). *)
let rec alloc_nursery t ~req cls kind =
  match Hashtbl.find_opt t.nursery_cursors (cls, kind) with
  | Some blk when blk.Block.blk_bump < blk.Block.blk_count ->
      let i = blk.Block.blk_bump in
      blk.Block.blk_bump <- i + 1;
      Block.set_allocated blk i true;
      (* ages on a fresh block are already 0 and bump slots are never
         reused, so no age reset is needed here *)
      if t.phase <> Idle then Block.set_marked blk i true;
      blk.Block.blk_req.(i) <- req;
      Block.slot_addr blk i
  | _ -> (
      let fl = free_list t cls kind in
      match !fl with
      | addr :: rest ->
          fl := rest;
          (match Page_map.find t.map addr with
          | Some blk ->
              let i = Option.get (Block.slot_of_addr blk addr) in
              Block.set_allocated blk i true;
              (* the reused slot is born young again *)
              Block.set_age blk i 0;
              if t.phase <> Idle then Block.set_marked blk i true;
              blk.Block.blk_req.(i) <- req;
              if t.config.generational && not blk.Block.blk_aging then begin
                blk.Block.blk_aging <- true;
                t.aging_blocks <- blk :: t.aging_blocks
              end
          | None -> assert false);
          Mem.fill t.mem addr cls '\000';
          addr
      | [] -> (
          match claim_pages t 1 with
          | Some start ->
              ignore (open_young_block t cls kind start);
              alloc_nursery t ~req cls kind
          | None -> (
              match t.config.oom_policy with
              | Trap -> exhausted t ~req ~pages:1
              | Collect_expand -> (
                  emergency_collect t;
                  (* the emergency cycle sealed the cursors and may have
                     refilled the free list or the reclaim pool; retry
                     the slow path once before giving up *)
                  match !fl with
                  | _ :: _ -> alloc_nursery t ~req cls kind
                  | [] -> (
                      match claim_pages t 1 with
                      | Some start ->
                          ignore (open_young_block t cls kind start);
                          alloc_nursery t ~req cls kind
                      | None -> exhausted t ~req ~pages:1)))))

(** Allocate [bytes] (plus the mandatory slack byte) of zeroed storage.

    @raise Heap_exhausted when the heap limit blocks a needed growth
    (immediately under [Trap]; only after an emergency collection and
    retry under [Collect_expand]), or when an injected failure plan
    fires under [Trap]. *)
let alloc ?(kind = Block.Normal) t bytes =
  let bytes = max bytes 1 in
  t.stats.bytes_allocated <- t.stats.bytes_allocated + bytes;
  t.stats.objects_allocated <- t.stats.objects_allocated + 1;
  t.since_gc <- t.since_gc + bytes;
  t.since_minor <- t.since_minor + bytes;
  (* deterministic failure injection, keyed on the allocation ordinal:
     a fired point behaves exactly like a growth the ceiling blocked *)
  if Failpoint.fires t.failpoints t.stats.objects_allocated then begin
    t.stats.injected_failures <- t.stats.injected_failures + 1;
    match t.config.oom_policy with
    | Trap ->
        raise
          (Heap_exhausted
             (Printf.sprintf
                "heap exhausted: injected failure at allocation #%d (%d \
                 bytes, policy trap)"
                t.stats.objects_allocated bytes))
    | Collect_expand -> emergency_collect t
  end;
  let with_slack = bytes + 1 in
  if with_slack > max_small then alloc_large t ~req:bytes with_slack kind
  else if
    (match kind with
    | Block.Normal | Block.Atomic -> true
    | Block.Uncollectable | Block.Stack -> false)
    && nursery_enabled t
  then alloc_nursery t ~req:bytes (class_size with_slack) kind
  else begin
    let cls = class_size with_slack in
    let fl = free_list t cls kind in
    (if !fl = [] then refill_small t cls kind fl);
    match !fl with
    | [] -> assert false
    | addr :: rest ->
        fl := rest;
        (match Page_map.find t.map addr with
        | Some blk ->
            let i = Option.get (Block.slot_of_addr blk addr) in
            Block.set_allocated blk i true;
            Block.set_age blk i 0;
            (* allocate-black during an in-flight incremental cycle *)
            if t.phase <> Idle then Block.set_marked blk i true;
            blk.Block.blk_req.(i) <- bytes
        | None -> assert false);
        Mem.fill t.mem addr cls '\000';
        addr
  end

(* ------------------------------------------------------------------ *)
(* Checking primitives (debugging mode runtime)                        *)
(* ------------------------------------------------------------------ *)

let fail t fmt =
  Format.kasprintf
    (fun s ->
      t.stats.check_failures <- t.stats.check_failures + 1;
      raise (Check_failure s))
    fmt

(** [GC_same_obj p q]: checks that [p] and [q] point into the same heap
    object (up to the collector's size rounding) and returns [p].  Non-heap
    pointers are ignored, matching the paper: only heap pointers are
    checked. *)
let same_obj t p q =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  let bq = base_of t q in
  (match bq with
  | None -> () (* q is not a heap pointer: nothing to check *)
  | Some base -> (
      match extent_of t q with
      | None -> assert false
      | Some (_, size) ->
          (* p may legally point one past the end; the slack byte puts that
             address inside the rounded object, but be explicit anyway. *)
          if p < base || p > base + size then
            fail t
              "GC_same_obj: %#x escapes object [%#x,+%d) (derived from %#x)"
              p base size q));
  p

(** [GC_pre_incr pp delta]: *pp += delta with a same-object check; returns
    the new value (the checked expansion of [++p] and [p += delta]). *)
let pre_incr t mem_addr delta =
  let old = Mem.load_word t.mem mem_addr in
  let fresh = old + delta in
  ignore (same_obj t fresh old);
  Mem.store_word t.mem mem_addr fresh;
  fresh

(** [GC_post_incr pp delta]: *pp += delta with a check; returns the old
    value (the checked expansion of [p++]). *)
let post_incr t mem_addr delta =
  let old = Mem.load_word t.mem mem_addr in
  let fresh = old + delta in
  ignore (same_obj t fresh old);
  Mem.store_word t.mem mem_addr fresh;
  old

(** [GC_check_base v]: the Extensions-mode store discipline — a heap
    pointer stored into the heap or statics must address the base of its
    object.  Non-heap values pass unchecked; returns [v]. *)
let check_base t v =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  (match Page_map.find t.map v with
  | Some blk when Block.collectable blk -> (
      match Block.slot_of_addr blk v with
      | Some i when Block.is_allocated blk i ->
          let b = Block.slot_addr blk i in
          if b <> v then
            fail t
              "GC_check_base: interior pointer %#x (base %#x) stored to \
               memory in base-only mode"
              v b
      | Some _ | None -> ())
  | Some _ | None -> () (* statics/stack and non-heap values are exempt *));
  v

(** [GC_check_range p n]: the "additional check" of the paper's Debugging
    Applications section — a whole-structure access of [n] bytes at [p]
    must lie entirely within [p]'s heap object.  Non-heap addresses pass
    (stack and statics are not checked, as in the paper).  Returns [p]. *)
let check_range t p n =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  (match extent_of t p with
  | Some (base, size) ->
      if p + n > base + size then
        fail t
          "GC_check_range: %d-byte structure access at %#x overruns object \
           [%#x,+%d)"
          n p base size
  | None -> ());
  p

(** Is [addr, addr+len) fully inside some allocated heap object?  The VM
    uses this to detect access to swept (prematurely collected) objects,
    on every load and store, so it is {!extent_of} without the
    allocation: a page-map lookup and slot arithmetic. *)
let valid_access t addr len =
  match Page_map.find t.map addr with
  | None -> false
  | Some blk ->
      let off = addr - blk.Block.blk_start in
      off >= 0
      &&
      let i = off / blk.Block.blk_obj_size in
      i < blk.Block.blk_count
      && Block.is_allocated blk i
      && addr + len <= Block.slot_addr blk i + blk.Block.blk_obj_size

(* ------------------------------------------------------------------ *)
(* Heap-integrity sanitizer                                            *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_rule : string;  (** which invariant family failed *)
  v_detail : string;
}

exception Heap_corruption of violation list

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.v_rule v.v_detail

(** Validate every structural invariant the allocator and collector rely
    on.  Returns the violations found (empty on a healthy heap); collection
    correctness experiments run this after every collection.

    Invariant families:
    - [block-header]: descriptor fields are internally consistent;
    - [page-map]: every page of every block maps back to that block, and
      the map holds no stray blocks;
    - [mark-bits]: a mark bit is only ever set on an allocated slot;
    - [free-list]: free lists hold exactly the free slots of small blocks,
      once each, at slot-base addresses of the right class and kind;
    - [slack-byte]: every allocated object keeps the paper's one extra
      byte ([req] strictly below the rounded slot size);
    - [remembered-set] (generational mode only): every old→young
      reference lies on a dirty card, so a minor collection cannot miss
      it. *)
let check_integrity t : violation list =
  let out = ref [] in
  let report rule fmt =
    Format.kasprintf
      (fun s -> out := { v_rule = rule; v_detail = s } :: !out)
      fmt
  in
  (* block headers and page-map agreement.  [listed] sums the pages of
     the listed blocks, and [map_agrees] drops on any page-map report *)
  let listed = ref 0 and map_agrees = ref true in
  List.iter
    (fun blk ->
      listed := !listed + blk.Block.blk_pages;
      if blk.Block.blk_obj_size <= 0 || blk.Block.blk_count <= 0 then
        report "block-header" "block %#x: degenerate geometry (%d x %d)"
          blk.Block.blk_start blk.Block.blk_count blk.Block.blk_obj_size;
      if blk.Block.blk_start land (Mem.page_size - 1) <> 0 then
        report "block-header" "block %#x is not page-aligned"
          blk.Block.blk_start;
      if
        blk.Block.blk_count * blk.Block.blk_obj_size
        > blk.Block.blk_pages * Mem.page_size
      then
        report "block-header"
          "block %#x: %d objects of %d bytes overflow %d page(s)"
          blk.Block.blk_start blk.Block.blk_count blk.Block.blk_obj_size
          blk.Block.blk_pages;
      for pg = 0 to blk.Block.blk_pages - 1 do
        let addr = blk.Block.blk_start + (pg * Mem.page_size) in
        match Page_map.find t.map addr with
        | Some b when b == blk -> ()
        | Some b ->
            map_agrees := false;
            report "page-map" "page %#x of block %#x maps to block %#x"
              addr blk.Block.blk_start b.Block.blk_start
        | None ->
            map_agrees := false;
            report "page-map" "page %#x of block %#x is unmapped" addr
              blk.Block.blk_start
      done)
    t.all_blocks;
  (* no stray blocks in the page map.  When every page of every listed
     block maps back to it and the map holds no further page, there is
     none to find (the block list never holds a block twice) *)
  let map_intact = !map_agrees && Page_map.mapped_pages t.map = !listed in
  if not map_intact then begin
    let known = Hashtbl.create 64 in
    List.iter
      (fun b -> Hashtbl.replace known b.Block.blk_start ())
      t.all_blocks;
    Page_map.iter_blocks t.map (fun b ->
        if not (Hashtbl.mem known b.Block.blk_start) then
          report "page-map" "stray block %#x registered in the page map"
            b.Block.blk_start)
  end;
  (* per-slot invariants: mark bits and the one-extra-byte rule; also
     count the free slots of small old blocks for the free-list audit *)
  let free_slots = ref 0 in
  List.iter
    (fun blk ->
      let counted =
        blk.Block.blk_obj_size <= max_small && not blk.Block.blk_young
      in
      for i = 0 to blk.Block.blk_count - 1 do
        if counted && not (Block.is_allocated blk i) then incr free_slots;
        if Block.is_marked blk i && not (Block.is_allocated blk i) then
          report "mark-bits" "free slot %#x carries a mark bit"
            (Block.slot_addr blk i);
        if Block.is_allocated blk i then begin
          let req = blk.Block.blk_req.(i) in
          if req < 0 || req >= blk.Block.blk_obj_size then
            report "slack-byte"
              "object %#x: %d requested byte(s) leave no slack in a \
               %d-byte slot"
              (Block.slot_addr blk i) req blk.Block.blk_obj_size
        end
      done)
    t.all_blocks;
  (* free-list soundness.  An entry that is a slot base sets that slot's
     scratch byte, so a second sighting is a duplicate; the rare entries
     that are off-heap or not a slot base are remembered in [odd] *)
  let odd = ref [] in
  let base_slot found addr =
    match found with
    | Some blk ->
        let size = blk.Block.blk_obj_size in
        let off = addr - blk.Block.blk_start in
        if size <= 0 || off < 0 then -1
        else
          let i = off / size in
          if i * size = off && i < blk.Block.blk_count then i else -1
    | None -> -1
  in
  let seen found addr i =
    match found with
    | Some blk when i >= 0 -> Bytes.get blk.Block.blk_scratch i <> '\000'
    | Some _ | None -> List.mem addr !odd
  in
  (* [fresh_free] counts first sightings of free slots on small old
     blocks: when it matches the free slots of the listed small old
     blocks and the page map agrees with the block list, every free slot
     was sighted, and completeness needs no slot walk *)
  let fresh_free = ref 0 in
  Hashtbl.iter
    (fun (cls, kind) fl ->
      List.iter
        (fun addr ->
          let found = Page_map.find t.map addr in
          let i = base_slot found addr in
          if seen found addr i then
            report "free-list" "slot %#x appears on a free list twice" addr
          else begin
            match found with
            | Some blk when i >= 0 ->
                Bytes.set blk.Block.blk_scratch i '\001';
                if
                  blk.Block.blk_obj_size <= max_small
                  && (not blk.Block.blk_young)
                  && not (Block.is_allocated blk i)
                then incr fresh_free
            | Some _ | None -> odd := addr :: !odd
          end;
          match found with
          | None -> report "free-list" "entry %#x is not on a heap page" addr
          | Some blk ->
              if blk.Block.blk_obj_size <> cls then
                report "free-list"
                  "entry %#x on the %d-byte list, but its block holds \
                   %d-byte objects"
                  addr cls blk.Block.blk_obj_size;
              if blk.Block.blk_kind <> kind then
                report "free-list" "entry %#x has the wrong block kind" addr;
              if blk.Block.blk_young then
                report "free-list" "entry %#x lies on a nursery page" addr;
              if i < 0 then
                report "free-list" "entry %#x is not a slot base" addr
              else if Block.is_allocated blk i then
                report "free-list" "allocated slot %#x is on a free list" addr)
        !fl)
    t.free_lists;
  (* free-list completeness: every free small-class slot is findable —
     except on nursery pages, whose slots are bump-allocated and only
     join the free lists when the page is promoted.  A slot's own scratch
     byte answers at once; a lookup covers entries a corrupt page map
     filed under another block *)
  if not (map_intact && !fresh_free = !free_slots) then
    List.iter
      (fun blk ->
        if blk.Block.blk_obj_size <= max_small && not blk.Block.blk_young then
          for i = 0 to blk.Block.blk_count - 1 do
            if
              (not (Block.is_allocated blk i))
              && Bytes.get blk.Block.blk_scratch i = '\000'
            then begin
              let addr = Block.slot_addr blk i in
              let found = Page_map.find t.map addr in
              if not (seen found addr (base_slot found addr)) then
                report "free-list" "free slot %#x is on no free list" addr
            end
          done)
      t.all_blocks;
  (* clear the marks: an intact map puts them on listed blocks only *)
  if map_intact then
    List.iter
      (fun blk -> Bytes.fill blk.Block.blk_scratch 0 blk.Block.blk_count '\000')
      t.all_blocks
  else
    Hashtbl.iter
      (fun _ fl ->
        List.iter
          (fun addr ->
            let found = Page_map.find t.map addr in
            match found with
            | Some blk ->
                let i = base_slot found addr in
                if i >= 0 then Bytes.set blk.Block.blk_scratch i '\000'
            | None -> ())
          !fl)
      t.free_lists;
  (* nursery invariants: young blocks are collectable single-page bump
     regions, the cursor stays within bounds, nothing past the cursor
     was ever allocated, and the young set is exactly the young blocks *)
  List.iter
    (fun blk ->
      if blk.Block.blk_young then begin
        if not (Block.collectable blk) then
          report "nursery" "young block %#x is not collectable"
            blk.Block.blk_start;
        if blk.Block.blk_pages <> 1 then
          report "nursery" "young block %#x spans %d pages"
            blk.Block.blk_start blk.Block.blk_pages;
        if blk.Block.blk_bump < 0 || blk.Block.blk_bump > blk.Block.blk_count
        then
          report "nursery" "young block %#x: bump %d outside [0,%d]"
            blk.Block.blk_start blk.Block.blk_bump blk.Block.blk_count;
        for i = max 0 blk.Block.blk_bump to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i || Block.is_marked blk i then
            report "nursery"
              "young block %#x: slot %d at or past the bump cursor (%d) is \
               in use"
              blk.Block.blk_start i blk.Block.blk_bump
        done;
        if not (List.memq blk t.young_blocks) then
          report "nursery" "young block %#x is missing from the young set"
            blk.Block.blk_start
      end)
    t.all_blocks;
  List.iter
    (fun blk ->
      if not blk.Block.blk_young then
        report "nursery" "old block %#x lingers in the young set"
          blk.Block.blk_start)
    t.young_blocks;
  (* remembered-set completeness: minor collections scan only dirty
     cards of the old generation, so an old→young reference on a clean
     card would let a minor cycle reclaim a live object *)
  if t.config.generational then
    List.iter
      (fun blk ->
        if Block.collectable blk && Block.scanned blk then
          for i = 0 to blk.Block.blk_count - 1 do
            if Block.is_allocated blk i && is_old t blk i then begin
              let s = Block.slot_addr blk i in
              iter_range_words t s (s + blk.Block.blk_obj_size) (fun a v ->
                  let young =
                    match plausible_pointer ~from_root:false t v with
                    | Some (b, j) when Block.collectable b -> not (is_old t b j)
                    | Some _ | None -> false
                  in
                  if young && not (page_is_dirty t a) then
                    report "remembered-set"
                      "old object %#x holds young pointer %#x at %#x on a \
                       clean card"
                      s v a)
            end
          done)
      t.all_blocks;
  List.rev !out

(** Run {!check_integrity} and raise {!Heap_corruption} on any finding. *)
let assert_integrity t =
  match check_integrity t with [] -> () | vs -> raise (Heap_corruption vs)

(** Live collectable objects: [(count, requested_bytes)].  Deterministic
    across build configurations for the same program semantics, so the
    differential harness can diff final heaps. *)
let live_summary t =
  let objs = ref 0 and bytes = ref 0 in
  List.iter
    (fun blk ->
      if Block.collectable blk then
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then begin
            incr objs;
            bytes := !bytes + blk.Block.blk_req.(i)
          end
        done)
    t.all_blocks;
  (!objs, !bytes)

(** Total arena footprint in bytes (the VM's heap resource ceiling is
    checked against this). *)
let footprint t = Mem.limit t.mem

let pp_stats fmt s =
  Format.fprintf fmt
    "collections=%d (minor=%d) allocated=%d objs (%d bytes) freed=%d objs \
     (%d bytes) words_scanned=%d base_lookups=%d same_obj=%d failures=%d \
     promoted=%d cards_scanned=%d emergency=%d injected_failures=%d \
     increments=%d final_marks=%d barrier_grays=%d budget_overruns=%d \
     max_pause_words=%d abandoned=%d"
    s.collections s.minor_collections s.objects_allocated s.bytes_allocated
    s.objects_freed s.bytes_freed s.words_scanned s.base_lookups
    s.same_obj_checks s.check_failures s.promoted s.cards_scanned
    s.emergency_collections s.injected_failures s.increments s.final_marks
    s.barrier_grays s.budget_overruns s.inc_max_pause_words s.abandoned_cycles
