(** Conservative mark-sweep collector in the style of [Boehm95].

    The public surface covers exactly what the paper relies on: allocation
    with one extra byte of slack (so legal one-past-the-end pointers map
    back to their object), [GC_base]-style interior-pointer resolution via
    the height-2 page map, root scanning over caller-supplied word values
    and registered ranges, and the checking primitives of the debugging
    mode ([GC_same_obj], [GC_pre_incr], [GC_post_incr], [GC_check_base]).

    A generational mode layers minor collections on top: objects carry a
    per-slot age, a minor cycle scans roots, young objects and the dirty
    cards of a page-granularity remembered set (fed by {!note_store}),
    and survivors promote to the old generation after
    [config.promote_after] minor cycles.

    Generational and incremental heaps additionally segregate the
    generations by page: new small collectable objects are bump-allocated
    off young single-page blocks ([config.nursery_pages] of them per
    allocation window), whole-page cohorts age together, wholly dead
    nursery pages return to the reclaim pool, and a surviving cohort is
    promoted in place — the collector is conservative, so objects never
    move.  The remembered set then tracks only old-generation pages. *)

type gc_mode = Stw | Gen | Inc
(** Collector operating mode: stop-the-world full collections only (the
    paper's collector, the default), generational minor + major cycles,
    or incremental snapshot-at-the-beginning marking time-sliced across
    GC points (see {!Incremental}). *)

val gc_mode_name : gc_mode -> string
(** ["stw"] / ["gen"] / ["inc"]. *)

val gc_mode_of_string : string -> gc_mode option

type generation = Minor | Major
(** Which cycle {!collect} runs; [Minor] degrades to [Major] on a
    non-generational heap. *)

type oom_policy = Trap | Collect_expand
(** What an allocation failure (heap-limit overrun or injected
    failpoint) does: raise {!Heap_exhausted} immediately ([Trap]), or
    run an emergency full collection, retry, grow within the limit, and
    raise only when all of that fails ([Collect_expand], Boehm's
    collect-then-expand). *)

val oom_policy_name : oom_policy -> string
(** ["trap"] / ["collect-expand"]. *)

val oom_policy_of_string : string -> oom_policy option

type config = {
  mutable all_interior : bool;
      (** recognize interior pointers everywhere (the paper's default
          collector configuration); when [false], interior pointers are
          honoured from the roots only — the "Extensions" section mode *)
  mutable poison : bool;  (** fill freed objects with [0xDB] *)
  mutable gc_threshold : int;
      (** allocation volume (bytes) between collections *)
  mutable generational : bool;
      (** enable minor collections and the store barrier's dirty cards *)
  mutable minor_threshold : int;
      (** allocation volume (bytes) between minor collections *)
  mutable promote_after : int;
      (** minor collections an object must survive to become old *)
  mutable heap_limit_words : int;
      (** hard arena ceiling in words; [0] (the default) is unlimited *)
  mutable oom_policy : oom_policy;
      (** allocation-failure response; see {!oom_policy} *)
  mutable incremental : bool;
      (** enable the SATB write barrier and allocate-black so an
          {!Incremental} marking cycle can stay in flight across
          mutator steps *)
  mutable pause_budget_words : int;
      (** words of collector work one incremental step may perform
          before yielding back to the mutator *)
  mutable nursery_pages : int;
      (** pages of bump-allocated nursery a generational or incremental
          heap may open between collections before a minor cycle is due;
          [0] disables the nursery (legacy shared-page allocation) *)
}

type stats = {
  mutable collections : int;  (** all collections, minor included *)
  mutable minor_collections : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable words_scanned : int;
  mutable base_lookups : int;
  mutable same_obj_checks : int;
  mutable check_failures : int;
  mutable promoted : int;  (** objects promoted to the old generation *)
  mutable cards_scanned : int;  (** dirty cards visited by minor cycles *)
  mutable emergency_collections : int;
      (** collect-expand cycles run on allocation failure *)
  mutable injected_failures : int;  (** failpoints that fired *)
  mutable increments : int;  (** incremental steps run *)
  mutable final_marks : int;
      (** incremental steps that performed the atomic finalization *)
  mutable barrier_grays : int;
      (** overwritten old values the SATB barrier grayed *)
  mutable budget_overruns : int;
      (** incremental steps whose work exceeded the pause budget *)
  mutable inc_max_pause_words : int;
      (** largest single incremental step, in words of collector work *)
  mutable abandoned_cycles : int;
      (** in-flight incremental cycles abandoned by a full collection *)
}

type phase = Idle | Marking | Sweeping
(** Where an incremental marking cycle stands; [Idle] outside a cycle. *)

type t = {
  mem : Mem.t;
  map : Page_map.t;
  free_lists : (int * Block.kind, int list ref) Hashtbl.t;
  mutable large_blocks : Block.t list;
  mutable all_blocks : Block.t list;
  config : config;
  stats : stats;
  mutable since_gc : int;
      (** live-growth estimate driving major collections: allocation
          minus what minor cycles reclaimed, reset by a full collection *)
  mutable since_minor : int;  (** bytes allocated since any collection *)
  mutable dirty : Bytes.t;
      (** remembered set: one byte per arena page, set by {!note_store} *)
  mutable roots : (int * int) list;
  mutable on_free : (addr:int -> bytes:int -> unit) option;
      (** observer called with the base address and requested size of
          every object the sweeper reclaims — the heap profiler hangs
          off this; [None] (the default) costs one test per free *)
  mutable failpoints : Failpoint.t;
      (** injected allocation failures (the chaos harness sets this);
          [Never] (the default) costs one branch per allocation *)
  mutable on_oom : (unit -> unit) option;
      (** emergency-collection hook: the VM installs a closure that
          collects with its full root set (register files plus the live
          stack prefix); [None] collects over the registered root
          ranges only *)
  mutable free_pages : (int * int) list;
      (** reclaim pool: [(start, pages)] page runs retired from
          fully-empty blocks by emergency collections and from wholly
          dead nursery pages at collection boundaries, available to any
          later block of any size class.  The arena never shrinks, but
          pages inside it can change role — this is what makes
          [Collect_expand] strictly stronger than [Trap] when the
          blocker is a large allocation, and what keeps a churning
          nursery's footprint bounded.  Card bytes are wiped both when
          a run is retired and when it is reused, so no page is ever
          born dirty.  Always empty on limit-free stop-the-world
          executions *)
  mutable phase : phase;
      (** incremental-cycle phase; driven by {!Incremental.step} *)
  mutable gray : (int * int) list;
      (** incremental mark stack: gray ranges [start, stop)] still to
          scan, with partial push-back when a budget expires mid-range *)
  mutable sweep_pending : Block.t list;
      (** blocks the in-flight incremental cycle has yet to sweep *)
  mutable sweep_cursor : int;
      (** next slot to examine in the head of [sweep_pending] — lets a
          sweep slice stop mid-block exactly at the pause budget *)
  mutable young_blocks : Block.t list;
      (** nursery: the young single-page blocks currently in service *)
  mutable aging_blocks : Block.t list;
      (** old-generation blocks that may hold still-young (reused or
          large) slots, visited by the segregated minor sweep *)
  nursery_cursors : (int * Block.kind, Block.t) Hashtbl.t;
      (** (class size, kind) -> the young block being bump-filled *)
  mutable nursery_opened : int;
      (** young pages opened since the last collection (the nursery
          occupancy trigger for minor cycles) *)
  mutable dirty_index : int list;
      (** indices of possibly-dirty pages, so card scans walk the dirty
          subset instead of the whole arena; may hold stale entries,
          which readers skip by re-checking the card byte *)
}

exception Check_failure of string
(** Raised by the checking primitives when a pointer escapes its object. *)

exception Heap_exhausted of string
(** The structured out-of-memory outcome: a heap-limit overrun that
    survived the configured recovery, or an injected failpoint under
    the [Trap] policy.  Never raised when [heap_limit_words = 0] and no
    failpoints are set. *)

val default_config : unit -> config

val create : ?config:config -> unit -> t

val nursery_enabled : t -> bool
(** Is the bump-pointer nursery in service?  True on generational and
    incremental heaps with [config.nursery_pages > 0]; always false on
    stop-the-world heaps, which keep the seed allocator bit for bit. *)

val flush_nursery : t -> unit
(** Close out the nursery: wholly dead young pages return to the reclaim
    pool, surviving young pages are promoted in place (their free slots
    join the size-class free lists), and the bump cursors are sealed.
    The {!Incremental} collector calls this when a cycle completes; a
    no-op when the nursery is disabled or empty. *)

val add_root_range : t -> int -> int -> unit
(** Register a permanent root range [start, stop)] (scanned word-wise). *)

val class_size : int -> int
(** The size class an allocation request (slack included) rounds up to. *)

val max_small : int
(** Largest slot size served from the size-class free lists; anything
    bigger is a whole-pages large block. *)

val alloc : ?kind:Block.kind -> t -> int -> int
(** [alloc t n] returns the address of [n] bytes of zeroed storage (the
    paper's extra byte is added internally).  [kind] defaults to
    collectable, scanned storage.
    @raise Heap_exhausted when the heap limit blocks a needed growth
    (after emergency collection and retry under [Collect_expand]), or
    when a failpoint fires under [Trap]. *)

val base_of : t -> int -> int option
(** [GC_base]: map any address inside an allocated object to the object's
    base; [None] outside the heap, in free slots, or one before an
    object. *)

val extent_of : t -> int -> (int * int) option
(** Object extent [(base, rounded_size)] for an address inside an
    allocated object. *)

val note_store : t -> int -> int -> unit
(** [note_store t addr len]: the store write-barrier.  When the write
    lands inside an old collectable object, records its pages in the
    remembered set so the next minor cycle rescans them; writes to young
    objects, stacks, statics and registers need no card (minors scan all
    of those anyway).  A single branch (and no allocation) when the heap
    is not generational. *)

val page_is_dirty : t -> int -> bool
(** Is the card (page) holding [addr] in the remembered set? *)

val slot_age : t -> int -> int option
(** Minor collections the allocated object at [addr] has survived;
    [None] outside allocated objects.  Ages [>= config.promote_after]
    are the old generation. *)

val plausible_pointer : ?from_root:bool -> t -> int -> (Block.t * int) option
(** Conservative pointer identification for scanners: the block and slot
    index of the allocated object [v] points into, honouring
    [all_interior] (when it is off, interior pointers resolve only when
    [from_root]).  [None] for non-heap values and free slots.  Exposed
    for the {!Incremental} marker; ordinary clients use {!base_of}. *)

val iter_range_words : t -> int -> int -> (int -> int -> unit) -> unit
(** [iter_range_words t start stop f] calls [f addr word] for every
    aligned word overlapping [start, stop)] that lies inside the arena —
    the conservative scanners' word walk.  Exposed for {!Incremental}. *)

val free_list : t -> int -> Block.kind -> int list ref
(** The (created-on-demand) free list for a size class and block kind.
    Exposed for the {!Incremental} sweeper. *)

val abandon_cycle : t -> unit
(** Soundly abandon any in-flight incremental cycle: drop the gray stack
    and sweep cursor and return to [Idle] (mark bits are left for the
    next full collection's clear).  Every {!collect} does this first, so
    emergency, explicit and forced collections behave exactly as on a
    stop-the-world heap.  A no-op when no cycle is in flight. *)

val should_collect : t -> bool
(** Has the live-growth estimate since the last full collection crossed
    the (major) threshold? *)

val should_collect_minor : t -> bool
(** Has the allocation volume since any collection crossed the minor
    threshold?  Always [false] outside generational mode. *)

val collect :
  ?generation:generation ->
  ?extra_roots:int list ->
  ?extra_ranges:(int * int) list ->
  t ->
  int
(** Run a collection ([Major], a full stop-the-world cycle, by default;
    [Minor] scans only roots, young objects and dirty cards, and is
    honoured only on a generational heap).  [extra_roots] are word values
    scanned in addition to the registered ranges and uncollectable
    objects (the VM passes its register files); [extra_ranges] are
    per-collection root ranges (the VM passes the live prefix of its
    [Stack]-kind block).  Returns the number of objects freed. *)

val same_obj : t -> int -> int -> int
(** [GC_same_obj p q]: check that [p] points into (or one past) the object
    [q] points into, and return [p].  Non-heap [q] passes unchecked.
    @raise Check_failure when [p] escapes. *)

val pre_incr : t -> int -> int -> int
(** [GC_pre_incr slot delta]: [*slot += delta] with a {!same_obj} check;
    returns the new value. *)

val post_incr : t -> int -> int -> int
(** [GC_post_incr slot delta]: [*slot += delta] with a check; returns the
    old value. *)

val check_base : t -> int -> int
(** [GC_check_base v]: the Extensions-mode store discipline — a pointer
    into a collectable heap object must be its base.  Statics, stack and
    non-heap values pass.  Returns [v].
    @raise Check_failure on an interior heap pointer. *)

val check_range : t -> int -> int -> int
(** [GC_check_range p n]: a whole-structure access of [n] bytes at [p]
    must lie inside [p]'s heap object (the Debugging Applications
    section's "additional check").  Non-heap addresses pass.  Returns [p].
    @raise Check_failure on an overrun. *)

val valid_access : t -> int -> int -> bool
(** Is [addr, addr+len)] fully inside some allocated heap object?  Used by
    the VM on every load and store to detect access to prematurely
    collected storage, so it allocates nothing: a page-map lookup and
    slot arithmetic. *)

type violation = {
  v_rule : string;  (** which invariant family failed *)
  v_detail : string;
}
(** One heap-integrity finding, e.g. rule ["free-list"] with the offending
    address in the detail. *)

exception Heap_corruption of violation list
(** Raised by {!assert_integrity} so a corrupted heap surfaces as a
    structured report rather than silently continuing. *)

val pp_violation : Format.formatter -> violation -> unit

val check_integrity : t -> violation list
(** Validate page-map/block-header agreement, mark-bit consistency,
    free-list well-formedness and the one-extra-byte rule.  Returns the
    violations found (empty on a healthy heap). *)

val assert_integrity : t -> unit
(** @raise Heap_corruption if {!check_integrity} finds anything. *)

val live_summary : t -> int * int
(** Live collectable objects as [(count, requested_bytes)] — the final-heap
    fingerprint the differential harness diffs across builds. *)

val footprint : t -> int
(** Total arena footprint in bytes (what the VM's heap ceiling bounds). *)

val pp_stats : Format.formatter -> stats -> unit
