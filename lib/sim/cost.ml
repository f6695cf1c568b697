(* The simulator's cost model, in cycles of a nominal 3 GHz server core.

   These constants are the *calibration surface* of the reproduction (see
   DESIGN.md): they are set to plausible magnitudes for a modern two-socket
   machine and tuned so that the single-threaded ratios of the paper's
   Fig 13 land in the reported bands. The multicore behaviour is NOT tuned —
   it emerges from which cache lines and locks the concurrent operations
   serialize on (see {!Engine} and the lock models). *)

(* -- Memory hierarchy -- *)

let cache_hit = 4
(* Read/write of a line already exclusive in the local cache. *)

let cache_shared = 40
(* Read of a line resident in another core's cache (goes to S state). *)

let line_transfer = 110
(* Exclusive (RFO) transfer of a contended line between cores. This is the
   constant that makes shared lock words and shared PT pages a scalability
   bottleneck. *)

let atomic_local = 18
(* Uncontended atomic RMW on a core-local line. *)

(* -- Kernel entry and generic MM work -- *)

let trap = 420 (* page-fault entry + IRET *)
let syscall = 260 (* syscall entry/exit *)
let page_alloc = 280 (* buddy allocation of one 4 KiB frame *)
let page_free = 140
let page_zero = 520 (* zeroing 4 KiB *)
let page_copy = 780 (* copying 4 KiB (COW break) *)
let pt_walk_step = 9 (* read + decode of one PTE during a walk *)
let pte_write = 6 (* encode + store of one PTE (plus line effects) *)
let pt_page_init = page_alloc + 170
(* Allocating and initializing a page-table page (drawn from a pre-zeroed
   pool, so cheaper than a cold 4 KiB zeroing) — the cost the paper blames
   for CortenMM's small mmap regression (Fig 13). *)

let meta_array_alloc = 160
(* Allocating a per-PTE metadata array for one PT page (CortenMM). *)

let meta_write = 10 (* writing one metadata entry *)

let meta_bulk_fill = 300
(* Filling a whole metadata array (a mark push-down): streaming stores. *)

(* -- VMA layer (Linux baseline) -- *)

let vma_node_visit = 12 (* one node during maple-tree descent *)
let vma_alloc = 110 (* slab allocation + init of a vm_area_struct *)
let vma_free = 40
let vma_tree_update = 60 (* rebalancing bookkeeping for insert/erase *)

let linux_fault_accounting = 260
(* Per-fault RSS counters, LRU pagevec insertion, memcg charging — work
   the Linux fault path does beyond the VMA and PTE manipulation. *)

(* -- Synchronization fine structure -- *)

let rcu_toggle = 2 (* preemption-disable style read-side entry/exit *)
let bravo_read = 12 (* BRAVO visible-reader slot update *)
let bravo_revoke_per_cpu = 30 (* writer scanning the visible-reader table *)

(* -- TLB maintenance -- *)

let tlb_flush_local = 120 (* invlpg + pipeline effects *)
let tlb_flush_page = 36 (* per extra page flushed *)
let ipi_send = 450 (* initiating one IPI *)
let ipi_ack_wait = 1400 (* waiting for a remote core to acknowledge *)
let ipi_ack_wait_early = 350
(* With early acknowledgement (Amit et al. [25]) the initiator continues
   long before the remote flush completes. *)

let numa_remote_alloc = 320
(* Extra latency of allocating and first-touching a frame on a remote
   NUMA node (the interconnect hop on the zeroing stores). *)

let latr_publish = 60 (* pushing an entry to the per-CPU LATR buffer *)
let latr_drain_per_entry = 50 (* background drain on timer tick *)

let batch_enqueue = 40
(* Appending one shootdown record (vpns + target mask) to the deferred
   shootdown batch — a core-local queue push, no cross-core traffic. *)
