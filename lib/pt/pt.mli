(** Radix page-table engine over simulated physical memory, with raw
    per-ISA PTE encodings on the access path. ['m] is the per-PTE metadata
    array type CortenMM attaches to PT pages; other systems use [unit]. *)

open Mm_hal

type raw
(** A node's raw hardware words, unboxed (one 4 KiB page), followed by
    its occupancy bitset: one bit per entry, set exactly when the entry
    is present. *)

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

val charge_gets : 'm t -> 'm node -> int -> unit
(** [charge_gets t node k] charges exactly what [k] back-to-back {!get}s
    on [node] charge, as one walk step and line read plus
    [(k - 1) * (pt_walk_step + cache_hit)]: after the first read the
    line is no other CPU's and the fiber is past its [avail], and reads
    do not serialize. Charges nothing for [k <= 0]. *)

val charge_walk : 'm t -> 'm node list -> unit
(** Charge exactly what [get] charges on each node in order (a walk step
    plus a shared line read) without decoding — for walk caches replaying
    a skipped descent's cost. *)

val set : 'm t -> 'm node -> int -> Pte.t -> unit
(** Encode and store entry [idx]; charges an exclusive line access, which
    serializes concurrent writers to the same PT page. *)

val set_accessed : 'm t -> 'm node -> int -> unit
(** Set a leaf's accessed bit, as MMU hardware does during a walk (free). *)

val clear_accessed : 'm t -> 'm node -> int -> unit
(** Clear a leaf's accessed bit (a reclaim clock hand). Charged as {!set};
    the entry is tested after the store's serialization point, so an
    entry a concurrent transaction changed meanwhile is left alone. *)

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

val first_slot : 'm t -> 'm node -> lo:int -> int
val last_slot : 'm t -> 'm node -> hi:int -> int
(** The first and last slots of [node] whose coverage intersects a range
    starting at [lo] / ending at [hi] (clamped to the node). *)

val iter_range :
  'm t -> 'm node -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [iter_range t node ~lo ~hi f] calls [f idx sub_lo sub_hi] for each
    entry of [node] intersecting [lo, hi), with the clipped subrange. *)

(** {2 Occupancy}

    Scans that skip absent entries iterate the occupancy bits instead of
    every index. Each iterator visits exactly what an ascending index
    loop reading the entries as it goes would visit: the live bitmap is
    re-read after every callback, so entries a callback fills or clears
    further on are seen (or skipped) just as the loop would see them. *)

val next_present : 'm t -> 'm node -> int -> stop:int -> int
(** The first present index in [[i, stop)], or [stop]. *)

val next_present_or : 'm t -> 'm node -> Bytes.t -> int -> stop:int -> int
(** {!next_present} over the union of the node's occupancy bits and a
    caller's {!Mm_util.Bitset} of the same size (at offset [0]). *)

val iter_present : 'm t -> 'm node -> (int -> unit) -> unit
(** [f idx] for each present entry, in ascending order. *)

val iter_present_range :
  'm t -> 'm node -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** {!iter_range} restricted to present entries; reads only the bitmap
    words of the range's slots. *)

val corrupt_occupancy : 'm t -> 'm node -> int -> unit
(** Flip occupancy bit [idx] and nothing else — for tests that show
    {!check_well_formed} catches a stale bitmap. *)

val walk_create : 'm t -> ?from:'m node -> to_level:int -> int -> 'm node
val walk_opt : 'm t -> ?from:'m node -> to_level:int -> int -> 'm node

(** {2 A remembered descent}

    For loops that walk to level 1 once per page of a range (NrOS's log
    replay and fork copy). *)

type 'm descent
(** The last descent through it: the nodes whose entries it read and the
    node it returned, for one 2 MiB block (a level-2 entry's coverage). *)

val descent : 'm t -> create:bool -> 'm descent
(** An empty memo whose descents are [walk_create t ~to_level:1] when
    [create], else [walk_opt t ~to_level:1]. *)

val descend : 'm t -> 'm descent -> int -> 'm node
(** [descend t d vaddr] returns what the memo's walk for [vaddr] returns
    and charges what it charges. A walk into the block of the last one
    replays the remembered nodes with {!charge_walk} (the same [get]
    charges on the same nodes in the same order) instead of walking.
    Exact only while no PT page is added or removed on the remembered
    path or under its block: the caller keeps every other writer of [t]
    out for the memo's life. *)

val iter_subtree : 'm t -> 'm node -> ('m node -> unit) -> unit
val iter_nodes : 'm t -> ('m node -> unit) -> unit

val iter_leaves : 'm t -> 'm node -> (int -> int -> Pte.t -> unit) -> unit
(** Enumerate present leaves as [(vaddr, level, pte)]. *)

val check_well_formed : 'm t -> unit
(** The paper's Fig 12 invariant: every present entry is a last-level leaf
    or points to a valid PT page exactly one level down with a correct
    parent link; present counts and occupancy bits match the decoded
    entries; no node is reachable twice. Raises {!Ill_formed} otherwise. *)
