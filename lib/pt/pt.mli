(** Radix page-table engine over simulated physical memory, with raw
    per-ISA PTE encodings on the access path. ['m] is the per-PTE metadata
    array type CortenMM attaches to PT pages; other systems use [unit].
    A node's host storage is allocated in 64-entry chunks on the first
    present store into each; reads, stores and their charges are those
    of a dense page.

    A walk step is [get] on a node, then {!child} on a [Table] entry:
    [Pt] alone maps a table entry to its node and computes slots.
    {!walk_create} and {!walk_opt} are the one descent from the root.

    Every charged access comes in two forms. The [_on] form charges the
    fiber its caller holds: [Some] of the fiber the caller looked up
    once per operation, or [None] outside a simulation, which charges
    nothing. The plain form is its [_on] form applied to
    {!Mm_sim.Engine.current}[ ()], one domain-local lookup per call. *)

open Mm_hal

type chunk
(** 64 of a node's entries: their raw hardware words, unboxed, and, from
    the chunk's first read on, a mirror that caches their decodes. A
    store leaves its slot of the mirror undecoded (or [Absent] over word
    0), and the first read of the entry decodes the word and keeps the
    decode, so a present entry nothing reads costs no host words beyond
    its raw word, and a chunk nothing reads has no mirror. A stretch no
    present store has reached shares one empty chunk, whose raw words
    are 0 ([Absent] in every PTE format). *)

type occ
(** A node's occupancy bits: one per entry, set exactly when the entry
    is present. *)

type 'm node = {
  frame : Mm_phys.Frame.t;
  line : Mm_sim.Engine.Line.t;
      (* the frame's cache line, which every read and write of the node
         charges: {!Mm_phys.Phys.line}, cached *)
  mutable lock : Mm_sim.Mutex_s.t;
  mutable rwlock : Mm_sim.Rwlock_s.t;
      (* the frame's PT-page locks, cached by {!lock} and {!rwlock} *)
  level : int;
  chunks : chunk array; (* allocated by the first present store *)
  occ : occ;
  mutable present : int;
  mutable parent : ('m node * int) option;
  mutable base : int; (* base vaddr of the node's coverage, set at link *)
  mutable meta : 'm option;
  mutable touched : int; (* bitmask of CPUs that installed translations *)
  mutable kid_slot : int;
  mutable kid : 'm node;
      (* [Pt]'s own memo of the last child {!child} resolved and its
         slot: -1 and the node itself when none. Callers never write
         them. *)
}

type 'm t

exception Ill_formed of string

val create : Mm_phys.Phys.t -> Isa.t -> 'm t
val root : 'm t -> 'm node

val lock : 'm t -> 'm node -> Mm_sim.Mutex_s.t
(** The node's frame's PT-page spin lock ({!Mm_phys.Phys.lock}), cached
    in the node on first use. *)

val rwlock : 'm t -> 'm node -> Mm_sim.Rwlock_s.t
(** Likewise its BRAVO rwlock ({!Mm_phys.Phys.rwlock}). *)

val entries_per_node : 'm t -> int

val pt_page_count : 'm t -> int

val get : 'm t -> 'm node -> int -> Pte.t
(** Decode entry [idx]; charges a walk step and a shared line read. *)

val get_atomic_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> Pte.t
(** Same cost as [get_on]; marks lock-free traversal call sites. *)

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

val set : 'm t -> 'm node -> int -> Pte.t -> unit
(** Encode and store entry [idx]; charges an exclusive line access, which
    serializes concurrent writers to the same PT page. Raises
    [Invalid_argument] on a [Table] entry: {!set_child} writes those. *)

val set_accessed : 'm t -> 'm node -> int -> unit
(** Set a leaf's accessed bit, as MMU hardware does during a walk (free). *)

val clear_accessed : 'm t -> 'm node -> int -> unit
(** Clear a leaf's accessed bit (a reclaim clock hand). Charged as {!set};
    the entry is tested after the store's serialization point, so an
    entry a concurrent transaction changed meanwhile is left alone. *)

val child : 'm t -> 'm node -> int -> 'm node
(** [child t node idx] is the PT page that table entry [idx] of [node]
    names. Uncharged: the caller has read the entry ({!get} or
    {!get_uncharged}) and found a [Table]. Allocates nothing and, when
    [idx] is the slot [node] last resolved, probes nothing. Raises
    [Invalid_argument] if the entry is not a table entry, and
    {!Ill_formed} if it names no PT page of [t] (a dangling entry). *)

val ensure_child : 'm t -> 'm node -> int -> 'm node
(** The child under entry [idx] ({!get}, then {!child}), or a new PT
    page linked there with {!set_child} when the entry is absent. *)

val alloc_node : 'm t -> level:int -> 'm node
(** Allocate an unlinked PT page (callers link it with {!set_child}). *)

val set_child : 'm t -> 'm node -> int -> 'm node -> unit
(** [set_child t parent idx c] sets [c]'s parent link to [(parent, idx)]
    and its cached base address, then stores the table entry naming [c]
    with {!set}'s charges. The only writer of table entries. *)

val detach_child : 'm t -> 'm node -> int -> 'm node
(** Atomically clear the table entry and unlink the child (the caller
    frees it, possibly RCU-deferred). *)

val free_node : 'm t -> 'm node -> unit
(** Free an unlinked node's frame. Raises if still linked. *)

(** {2 Slots}

    Arithmetic on per-level shifts the tree derives from its ISA
    geometry at {!create}; each equals {!Mm_hal.Geometry}'s. *)

val index : 'm t -> level:int -> vaddr:int -> int
val entry_coverage : 'm t -> 'm node -> int
val node_coverage : 'm t -> 'm node -> int
val node_base : 'm t -> 'm node -> int

val covering_slot : 'm t -> 'm node -> lo:int -> hi:int -> int
(** The slot of [node] whose entry covers all of [lo, hi), or -1 when no
    single entry does or [node] is at the leaf level. *)

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
    caller's {!Mm_util.Bitset} of the same size. *)

val iter_present : 'm t -> 'm node -> (int -> unit) -> unit
(** [f idx] for each present entry, in ascending order. *)

val iter_present_range :
  'm t -> 'm node -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** {!iter_range} restricted to present entries; reads only the bitmap
    words of the range's slots. *)

val corrupt_occupancy : 'm t -> 'm node -> int -> unit
(** Flip occupancy bit [idx] and nothing else — for tests that show
    {!check_well_formed} catches a stale bitmap. *)

val corrupt_mirror : 'm t -> 'm node -> int -> Pte.t -> unit
(** Overwrite the decoded mirror of entry [idx] and nothing else — for
    tests that show {!check_well_formed} catches a stale mirror. *)

val corrupt_memo : 'm t -> 'm node -> int -> 'm node -> unit
(** Make [node] remember [kid] as its child at slot [idx] and nothing
    else — for tests that show {!check_well_formed} catches a stale
    memo. *)

val walk_create : 'm t -> to_level:int -> int -> 'm node
(** [walk_create t ~to_level vaddr] descends from the root to the node at
    [to_level] whose coverage holds [vaddr], adding missing PT pages with
    {!set_child}. It charges what {!ensure_child} on each level above
    [to_level] charges. Raises [Invalid_argument] at a huge leaf. *)

val walk_opt : 'm t -> to_level:int -> int -> 'm node
(** Like {!walk_create} without adding pages: the deepest existing node
    toward [vaddr] at or above [to_level], charged as one {!get} per
    level read. *)

val iter_subtree : 'm t -> 'm node -> ('m node -> unit) -> unit
val iter_nodes : 'm t -> ('m node -> unit) -> unit

val iter_leaves : 'm t -> 'm node -> (int -> int -> Pte.t -> unit) -> unit
(** Enumerate present leaves as [(vaddr, level, pte)]. *)

(** {2 On a held fiber}

    Each charges exactly what its plain form charges, on the given fiber
    instead of the running one. *)

val get_on : Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> Pte.t

val set_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> Pte.t -> unit

val set_child_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> 'm node -> unit

val alloc_node_on :
  Mm_sim.Engine.fiber option -> 'm t -> level:int -> 'm node

val ensure_child_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> 'm node

val detach_child_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> 'm node

val clear_accessed_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> unit

val free_node_on : Mm_sim.Engine.fiber option -> 'm t -> 'm node -> unit
val charge_node_scan_on : Mm_sim.Engine.fiber option -> 'm t -> unit

val charge_gets_on :
  Mm_sim.Engine.fiber option -> 'm t -> 'm node -> int -> unit

val walk_create_on :
  Mm_sim.Engine.fiber option -> 'm t -> to_level:int -> int -> 'm node

val walk_opt_on :
  Mm_sim.Engine.fiber option -> 'm t -> to_level:int -> int -> 'm node

val iter_leaves_on :
  Mm_sim.Engine.fiber option ->
  'm t ->
  'm node ->
  (int -> int -> Pte.t -> unit) ->
  unit

val check_well_formed : 'm t -> unit
(** The paper's Fig 12 invariant: every present entry is a last-level leaf
    or points to a valid PT page exactly one level down with a correct
    parent link; present counts and occupancy bits match the decoded
    entries; every decode the mirror holds equals its raw word's; no
    node is reachable twice; each node's remembered child is the node
    its slot's entry names. Raises {!Ill_formed} otherwise. Decodes
    every raw word but fills none of the mirror. *)
