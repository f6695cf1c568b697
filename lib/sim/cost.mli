(** The simulator's cost model, in cycles of a nominal 3 GHz server core.

    These constants are the {e calibration surface} of the reproduction
    (see DESIGN.md): plausible magnitudes for a modern two-socket
    machine, tuned so the single-threaded ratios of the paper's Fig 13
    land in the reported bands. The multicore behaviour is NOT tuned —
    it emerges from which cache lines and locks the concurrent
    operations serialize on. *)

(** {2 Memory hierarchy} *)

val cache_hit : int
(** Read/write of a line already exclusive in the local cache. *)

val cache_shared : int
(** Read of a line resident in another core's cache (goes to S state). *)

val line_transfer : int
(** Exclusive (RFO) transfer of a contended line between cores — the
    constant that makes shared lock words and shared PT pages a
    scalability bottleneck. *)

val atomic_local : int
(** Uncontended atomic RMW on a core-local line. *)

(** {2 Kernel entry and generic MM work} *)

val trap : int
(** Page-fault entry + IRET. *)

val syscall : int
(** Syscall entry/exit. *)

val page_alloc : int
(** Buddy allocation of one 4 KiB frame. *)

val page_free : int

val page_zero : int
(** Zeroing 4 KiB. *)

val page_copy : int
(** Copying 4 KiB (COW break). *)

val pt_walk_step : int
(** Read + decode of one PTE during a walk. *)

val pte_write : int
(** Encode + store of one PTE (plus line effects). *)

val pt_page_init : int
(** Allocating and initializing a page-table page (drawn from a
    pre-zeroed pool) — the cost the paper blames for CortenMM's small
    mmap regression (Fig 13). *)

val meta_array_alloc : int
(** Allocating a per-PTE metadata array for one PT page (CortenMM). *)

val meta_write : int
(** Writing one metadata entry. *)

val meta_bulk_fill : int
(** Filling a whole metadata array (a mark push-down): streaming
    stores. *)

(** {2 VMA layer (Linux baseline)} *)

val vma_node_visit : int
(** One node during maple-tree descent. *)

val vma_alloc : int
(** Slab allocation + init of a vm_area_struct. *)

val vma_free : int

val vma_tree_update : int
(** Rebalancing bookkeeping for insert/erase. *)

val linux_fault_accounting : int
(** Per-fault RSS counters, LRU pagevec insertion, memcg charging — work
    the Linux fault path does beyond the VMA and PTE manipulation. *)

(** {2 Synchronization fine structure} *)

val rcu_toggle : int
(** Preemption-disable style read-side entry/exit. *)

val bravo_read : int
(** BRAVO visible-reader slot update. *)

val bravo_revoke_per_cpu : int
(** Writer scanning the visible-reader table. *)

(** {2 TLB maintenance} *)

val tlb_flush_local : int
(** invlpg + pipeline effects. *)

val tlb_flush_page : int
(** Per extra page flushed. *)

val ipi_send : int
(** Initiating one IPI. *)

val ipi_ack_wait : int
(** Waiting for a remote core to acknowledge. *)

val ipi_ack_wait_early : int
(** With early acknowledgement (Amit et al.) the initiator continues
    long before the remote flush completes. *)

val numa_remote_alloc : int
(** Extra latency of allocating and first-touching a frame on a remote
    NUMA node (the interconnect hop on the zeroing stores). *)

val latr_publish : int
(** Pushing an entry to the per-CPU LATR buffer. *)

val latr_drain_per_entry : int
(** Background drain on timer tick. *)

val batch_enqueue : int
(** Appending one shootdown record (vpns + target mask) to the deferred
    shootdown batch — a core-local queue push, no cross-core traffic. *)
