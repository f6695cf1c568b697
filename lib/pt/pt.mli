(** Radix page-table engine over simulated physical memory, with raw
    per-ISA PTE encodings on the access path. ['m] is the per-PTE metadata
    array type CortenMM attaches to PT pages; other systems use [unit]. *)

open Mm_hal

type raw
(** A node's raw hardware words, unboxed (one 4 KiB page). *)

type 'm node = {
  frame : Mm_phys.Frame.t;
  level : int;
  raw : raw;
  decoded : Pte.t array; (* mirror of the decoded raw words *)
  mutable present : int;
  mutable parent : ('m node * int) option;
  mutable base : int; (* base vaddr of the node's coverage, set at link *)
  mutable meta : 'm option;
  mutable touched : int; (* bitmask of CPUs that installed translations *)
}

type 'm t

exception Ill_formed of string

val create : Mm_phys.Phys.t -> Isa.t -> 'm t
val root : 'm t -> 'm node
val isa : 'm t -> Isa.t
val geometry : 'm t -> Geometry.t
val node_of_pfn : 'm t -> int -> 'm node option
val entries_per_node : 'm t -> int

val pt_page_count : 'm t -> int
val pt_pages_allocated : 'm t -> int
val pt_pages_freed : 'm t -> int

val get : 'm t -> 'm node -> int -> Pte.t
(** Decode entry [idx]; charges a walk step and a shared line read. *)

val get_atomic : 'm t -> 'm node -> int -> Pte.t
(** Same cost as [get]; marks lock-free traversal call sites. *)

val get_uncharged : 'm t -> 'm node -> int -> Pte.t
(** Decode without charging — for whole-node scans billed in bulk. *)

val charge_node_scan : 'm t -> unit
(** The streaming cost of scanning one PT page's entries. *)

val charge_range_scan : 'm t -> 'm node -> lo:int -> hi:int -> unit
(** Streaming cost of scanning only the slots intersecting [lo, hi). *)

val charge_walk_step : 'm t -> 'm node -> unit
(** Charge exactly what [get] charges (a walk step plus a shared line
    read) without decoding — for walk caches replaying a skipped
    descent's cost. *)

val set : 'm t -> 'm node -> int -> Pte.t -> unit
(** Encode and store entry [idx]; charges an exclusive line access, which
    serializes concurrent writers to the same PT page. *)

val set_accessed : 'm t -> 'm node -> int -> unit
(** Set a leaf's accessed bit, as MMU hardware does during a walk (free). *)

val child : 'm t -> 'm node -> int -> 'm node option
val ensure_child : 'm t -> 'm node -> int -> 'm node

val alloc_node : 'm t -> level:int -> 'm node
(** Allocate an unlinked PT page (callers link it via [set]). *)

val link_child : 'm t -> 'm node -> int -> 'm node -> unit
(** Set [child]'s parent link to [(parent, idx)] and its cached base
    address. Callers still write the table entry themselves via [set]. *)

val detach_child : 'm t -> 'm node -> int -> 'm node
(** Atomically clear the table entry and unlink the child (the caller
    frees it, possibly RCU-deferred). *)

val free_node : 'm t -> 'm node -> unit
(** Free an unlinked node's frame. Raises if still linked. *)

val index : 'm t -> level:int -> vaddr:int -> int
val entry_coverage : 'm t -> 'm node -> int
val node_coverage : 'm t -> 'm node -> int
val node_base : 'm t -> 'm node -> int
val entry_covers : 'm t -> 'm node -> int -> lo:int -> hi:int -> bool

val iter_range :
  'm t -> 'm node -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [iter_range t node ~lo ~hi f] calls [f idx sub_lo sub_hi] for each
    entry of [node] intersecting [lo, hi), with the clipped subrange. *)

val walk_create : 'm t -> ?from:'m node -> to_level:int -> int -> 'm node
val walk_opt : 'm t -> ?from:'m node -> to_level:int -> int -> 'm node

val iter_subtree : 'm t -> 'm node -> ('m node -> unit) -> unit
val iter_nodes : 'm t -> ('m node -> unit) -> unit

val iter_leaves : 'm t -> 'm node -> (int -> int -> Pte.t -> unit) -> unit
(** Enumerate present leaves as [(vaddr, level, pte)]. *)

val check_well_formed : 'm t -> unit
(** The paper's Fig 12 invariant: every present entry is a last-level leaf
    or points to a valid PT page exactly one level down with a correct
    parent link; present counts match; no node is reachable twice. Raises
    {!Ill_formed} otherwise. *)
