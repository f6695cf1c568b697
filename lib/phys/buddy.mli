(** Buddy allocator over physical frame numbers (Linux-style, as CortenMM's
    physical memory manager). Pure data structure: callers charge
    simulation costs. *)

type t

exception Out_of_memory

val max_order : int
val create : nframes:int -> t

val alloc : t -> order:int -> int
(** Allocate a block of [2^order] frames; returns its first pfn (aligned to
    the block size). Raises {!Out_of_memory} when the range is exhausted. *)

val free : t -> pfn:int -> order:int -> unit
(** Free a block previously allocated with the same order. Detects double
    frees and misaligned blocks. *)

val allocated_frames : t -> int
val splits : t -> int
val merges : t -> int

val frontier : t -> int
(** First never-allocated pfn (the bump frontier). *)

val free_blocks : t -> order:int -> int list
(** Free-block pfns of one order, sorted ascending. For tests and the
    reference-implementation equivalence harness. *)

val check_invariants : t -> unit
(** Raises [Failure] if internal invariants are broken (for tests). *)
