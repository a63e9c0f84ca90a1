(** Heap blocks: runs of pages holding uniformly sized objects.

    This mirrors the Boehm collector's [hblk] structure that the paper's
    checking mode depends on: "a tree of fixed height 2 describing pages of
    uniformly sized objects", tuned so that mapping any address to the base
    of its object is fast. *)

type kind =
  | Normal  (** collectable, contents scanned for pointers *)
  | Atomic  (** collectable, contents known pointer-free (GC_malloc_atomic) *)
  | Uncollectable
      (** never swept, contents scanned: VM statics and string literals
          (GC_malloc_uncollectable) *)
  | Stack
      (** never swept, and only the live prefix is scanned — the caller
          passes the current extent to [collect] as a root range *)

type t = {
  blk_start : int;  (** address of the first object *)
  blk_pages : int;  (** number of pages spanned *)
  blk_obj_size : int;  (** rounded object size in bytes *)
  blk_count : int;  (** number of object slots *)
  blk_kind : kind;
  blk_alloc : Bytes.t;  (** one byte per slot: 0 free, 1 allocated *)
  blk_mark : Bytes.t;  (** one byte per slot: mark bit for the collector *)
  blk_age : Bytes.t;
      (** one byte per slot: number of minor collections survived; an
          object whose age reaches the heap's promotion threshold is old *)
  blk_req : int array;  (** requested (un-rounded) size per slot *)
  blk_scratch : Bytes.t;
      (** one byte per slot for the heap sanitizer's marks; all zero
          outside a sanitizer pass *)
  mutable blk_young : bool;
      (** nursery block: filled front-to-back by the bump cursor, every
          resident object belongs to the current young cohort *)
  mutable blk_bump : int;
      (** next bump slot; slots at and above this index have never been
          allocated (only meaningful while [blk_young]) *)
  mutable blk_aging : bool;
      (** old-generation block holding at least one reused slot that is
          still young — it must be visited by minor sweeps until every
          such slot is promoted or freed *)
}

let make ~start ~pages ~obj_size ~count ~kind =
  {
    blk_start = start;
    blk_pages = pages;
    blk_obj_size = obj_size;
    blk_count = count;
    blk_kind = kind;
    blk_alloc = Bytes.make count '\000';
    blk_mark = Bytes.make count '\000';
    blk_age = Bytes.make count '\000';
    blk_req = Array.make count 0;
    blk_scratch = Bytes.make count '\000';
    blk_young = false;
    blk_bump = 0;
    blk_aging = false;
  }

(** Index of the object slot containing [addr], if [addr] lies within the
    object area of this block. *)
let slot_of_addr t addr =
  let off = addr - t.blk_start in
  if off < 0 then None
  else
    let i = off / t.blk_obj_size in
    if i < t.blk_count then Some i else None

let slot_addr t i = t.blk_start + (i * t.blk_obj_size)

let is_allocated t i = Bytes.get t.blk_alloc i <> '\000'

let set_allocated t i v = Bytes.set t.blk_alloc i (if v then '\001' else '\000')

let is_marked t i = Bytes.get t.blk_mark i <> '\000'

let set_marked t i v = Bytes.set t.blk_mark i (if v then '\001' else '\000')

let clear_marks t = Bytes.fill t.blk_mark 0 t.blk_count '\000'

let age t i = Char.code (Bytes.get t.blk_age i)

let set_age t i v = Bytes.set t.blk_age i (Char.chr (min 255 (max 0 v)))

let scanned t =
  match t.blk_kind with
  | Normal | Uncollectable -> true
  | Atomic | Stack -> false

let collectable t =
  match t.blk_kind with
  | Normal | Atomic -> true
  | Uncollectable | Stack -> false

(* auto-scanned in full during every collection *)
let root_scanned t =
  match t.blk_kind with
  | Uncollectable -> true
  | Normal | Atomic | Stack -> false
