(** The height-2 page map: page number -> heap block descriptor.

    [GC_base]-style lookups do exactly two array indexings — the structure
    the paper contrasts with Jones & Kelly's splay tree. *)

type t

val create : unit -> t

val set_block : t -> Block.t -> unit
(** Register a block for every page it spans. *)

val clear_block : t -> Block.t -> unit

val mapped_pages : t -> int
(** How many pages map to some block. *)

val find : t -> int -> Block.t option
(** The block containing an address, if it lies on a registered page.  Two
    array lookups, no search. *)

val iter_blocks : t -> (Block.t -> unit) -> unit
(** Visit every registered block exactly once. *)
