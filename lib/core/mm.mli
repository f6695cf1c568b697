(** Memory-management operations over the transactional interface (paper
    Fig 8): each operation is one locked transaction. *)

type backing =
  | Anon
  | File_private of File.t * int (** file, byte offset *)
  | Shared of File.t * int (** shared file or shm object *)

exception Enomem

type fault_outcome = Handled | Sigsegv

exception Fault of int
(** Raised by {!touch} on SIGSEGV, carrying the faulting address. *)

exception Mremap_failed of string

val mremap : Addr_space.t -> addr:int -> old_len:int -> new_len:int -> int
(** Resize a mapping: shrink in place, or grow by relocating to a fresh
    range (MAYMOVE semantics — frames keep their identity, data moves
    with them). Returns the (possibly new) address. Huge leaves in the
    old range are unsupported. *)

val madvise_dontneed : Addr_space.t -> addr:int -> len:int -> unit
(** Drop the range's resident anonymous pages without unmapping: the
    virtual allocation stays and refaults observe zero-filled pages. *)

val page_fault : Addr_space.t -> vaddr:int -> write:bool -> fault_outcome
(** The Fig 8 page-fault handler: demand paging, COW breaks, swap-in,
    file faults, spurious-fault reinstalls. *)

val touch : Addr_space.t -> vaddr:int -> write:bool -> unit
(** One user access: TLB lookup, hardware page walk on miss, page fault
    as needed. Raises {!Fault} if the fault resolves to SIGSEGV. *)

val touch_range : Addr_space.t -> addr:int -> len:int -> write:bool -> unit

val fork : Addr_space.t -> Addr_space.t
(** Copy-on-write duplication: enumerates the parent by walking its page
    table (the §6.2 worst case), write-protecting private mappings on
    both sides. *)

val destroy : Addr_space.t -> unit
(** Unmap the whole user range (exec/exit teardown). *)

val swap_out : Addr_space.t -> vaddr:int -> dev:Blockdev.t -> bool
(** Swap one resident, singly-mapped anonymous page out through the
    anonymous pager ({!Vm_object.pager}); [false] when the page does not
    qualify (shared / COW / not anon / wired by mlock). *)

val unmap_file_page : Addr_space.t -> vaddr:int -> bool
(** Reclaim helper: revert one resident file/shm page to its unfaulted
    backing status (the mapping stays; the next access refaults through
    the pager). [false] when the page is not a resident file page. *)

val promote_huge : Addr_space.t -> vaddr:int -> bool
(** Promote the 2 MiB region of [vaddr] to a huge page if it qualifies
    (fully populated with uniform, singly-mapped anonymous pages). *)

val khugepaged : Addr_space.t -> int
(** Scan the whole space and promote every qualifying region; returns the
    number promoted. *)

val pkey_mprotect :
  Addr_space.t -> addr:int -> len:int -> perm:Mm_hal.Perm.t -> key:int -> unit
(** Tag a range with an Intel MPK protection key; accesses are then
    gated by the per-CPU PKRU register ({!Kernel.wrpkru}). x86-64 only. *)

val mbind : Addr_space.t -> addr:int -> len:int -> policy:Numa.policy -> unit
(** Set the NUMA policy of a range; stored in the per-PTE metadata and
    consulted by subsequent anonymous faults (no migration of resident
    pages). *)

val timer_tick : Addr_space.t -> unit
(** Simulated timer interrupt: drains the CPU's lazy (LATR) TLB buffer. *)

val write_value : Addr_space.t -> vaddr:int -> value:int -> unit
(** Simulated user store of a verification token (drives COW/swap tests). *)

val read_value : Addr_space.t -> vaddr:int -> int

(** {2 Typed-error variants}

    Result-returning forms of the operations above: faults and malformed
    requests come back as {!Mm_hal.Errno.t} values instead of exceptions,
    which is what the backend interface ({!Mm_workloads.Backend.S}) and
    the differential oracle consume. Validation is host-side — a valid
    request charges exactly the cycles its exception-style twin does. *)

val mmap_r :
  Addr_space.t ->
  ?addr:int ->
  ?backing:backing ->
  ?policy:Numa.policy ->
  len:int ->
  perm:Mm_hal.Perm.t ->
  unit ->
  (int, Mm_hal.Errno.t) result
(** [Error EINVAL] for an empty range or an unaligned/negative explicit
    address; [Error ENOMEM] when frames or virtual space run out. *)

val munmap_r :
  Addr_space.t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result

val mprotect_r :
  Addr_space.t ->
  addr:int ->
  len:int ->
  perm:Mm_hal.Perm.t ->
  (unit, Mm_hal.Errno.t) result

val touch_r :
  Addr_space.t -> vaddr:int -> write:bool -> (unit, Mm_hal.Errno.t) result
(** [Error (SIGSEGV vaddr)] where {!touch} raises {!Fault}. *)

val touch_range_r :
  Addr_space.t ->
  addr:int ->
  len:int ->
  write:bool ->
  (unit, Mm_hal.Errno.t) result
(** Stops at the first faulting page. *)

val write_value_r :
  Addr_space.t -> vaddr:int -> value:int -> (unit, Mm_hal.Errno.t) result
(** Like {!write_value}, but a page that vanishes between the touch and
    the locked store surfaces as [Error (SIGSEGV page)]. *)

val read_value_r : Addr_space.t -> vaddr:int -> (int, Mm_hal.Errno.t) result

val msync_r : Addr_space.t -> file:File.t -> (int, Mm_hal.Errno.t) result
(** Write back the file's dirty pages; returns how many. *)

val mlock_r :
  Addr_space.t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result
(** Populate and wire the range: every page is faulted in and its frame
    pinned against reclaim. [Error EINVAL] for a malformed range,
    [Error EPERM] past the wired-page limit ({!Kernel.set_wired_limit}),
    [Error ENOMEM] when part of the range is unmapped, [Error EAGAIN]
    when frames ran out while populating. *)

val munlock_r :
  Addr_space.t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result
(** Unwire the range's resident pages (idempotent). *)
