(** Simulated physical memory: buddy allocator + a flat frame table of
    page descriptors, with per-kind usage accounting (Figs 18, 22).

    A frame's descriptor is made by the first touch of its pfn, through
    any function here that takes the pfn or its frame; that touch
    reserves the frame's two lock ids, rwlock [n] then mutex [n + 1]. *)

type t

val create : ?nframes:int -> ?page_size:int -> ?numa_nodes:int -> unit -> t

val numa_nodes : t -> int

val node_of_pfn : t -> int -> int
(** NUMA node owning a pfn (the pfn space is striped across nodes). *)

val frame : t -> int -> Frame.t
(** The frame of a pfn, its descriptor made on first touch. *)

val alloc : t -> kind:Frame.kind -> ?order:int -> ?node:int -> unit -> Frame.t
(** Allocate [2^order] contiguous frames of the given kind on a NUMA node
    (default 0); returns the head frame. Every frame of the block starts
    unmapped, clean, unwired and not stale, with contents 0. *)

val free : t -> Frame.t -> unit
(** Free a block by its head frame. Raises [Invalid_argument] if the
    frame is already free. *)

(** {2 Descriptor fields} *)

val kind : t -> Frame.t -> Frame.kind

val order : t -> Frame.t -> int
(** The buddy order a head frame was allocated with (0 for the others). *)

val stale : t -> Frame.t -> bool
(** Set by CortenMM_adv on an unmapped PT page (Fig 6/7). *)

val set_stale : t -> Frame.t -> bool -> unit

val wired : t -> Frame.t -> bool
(** mlock'd: the page-out daemon must never reclaim it. *)

val set_wired : t -> Frame.t -> bool -> unit

val map_count : t -> Frame.t -> int
(** Mappings of the frame, used by COW ("no need to COW if parent/child
    has left", Fig 8 L29). *)

val set_map_count : t -> Frame.t -> int -> unit

val add_map : t -> Frame.t -> unit
(** One more mapping. *)

val drop_map : t -> Frame.t -> bool
(** One mapping fewer: [true] when that was the last mapping of an
    anonymous frame, which the caller then frees. *)

val contents : t -> Frame.t -> int
(** The token standing in for the page's data, with which tests verify
    copy-on-write and swap round-trips. *)

val set_contents : t -> Frame.t -> int -> unit

val line : t -> Frame.t -> Mm_sim.Engine.Line.t
(** The frame's cache line, for coherence charges on its contents or,
    for a PT page, its entries. Built on first use and kept across free
    and reuse, as are the locks. *)

val lock : t -> Frame.t -> Mm_sim.Mutex_s.t
(** The PT-page spin lock (CortenMM_adv, Linux), id [n + 1]. *)

val rwlock : t -> Frame.t -> Mm_sim.Rwlock_s.t
(** CortenMM_rw's per-PT-page BRAVO-pfqlock, id [n]. *)

(** {2 Accounting} *)

val kernel_alloc_bytes : t -> bytes:int -> unit
(** Account a sub-page kernel allocation (metadata array, VMA struct…). *)

val kernel_free_bytes : t -> bytes:int -> unit

type usage = {
  pt_bytes : int;
  anon_bytes : int;
  file_bytes : int;
  kernel_bytes : int;
  total_bytes : int;
}

val usage : t -> usage
val allocated_frames : t -> int

val peak_data_bytes : t -> int
(** High-water mark of user data (anon + page-cache) bytes, for the
    allocator memory-usage experiment (Fig 18). *)

val data_frames : t -> int
(** Currently resident user data (anon + page-cache) frames, which the
    page-out daemon reports when a reclaim pass starts. *)
