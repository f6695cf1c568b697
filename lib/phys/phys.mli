(** Simulated physical memory: buddy allocator + lazily materialized page
    descriptors, with per-kind usage accounting (Figs 18, 22). *)

type t

val create : ?nframes:int -> ?page_size:int -> ?numa_nodes:int -> unit -> t

val numa_nodes : t -> int

val node_of_pfn : t -> int -> int
(** NUMA node owning a pfn (the pfn space is striped across nodes). *)

val frame : t -> int -> Frame.t
(** Descriptor of a pfn (materialized on first use). *)

val alloc : t -> kind:Frame.kind -> ?order:int -> ?node:int -> unit -> Frame.t
(** Allocate [2^order] contiguous frames of the given kind on a NUMA node
    (default 0); returns the head frame's descriptor. *)

val free : t -> Frame.t -> unit

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
