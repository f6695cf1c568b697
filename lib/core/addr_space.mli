(** The transactional interface to program the MMU — the paper's central
    contribution (Fig 4).

    [lock] runs the configured locking protocol (CortenMM_rw, Fig 5, or
    CortenMM_adv, Fig 6) over the page-table hierarchy and returns a
    cursor; the cursor's operations apply atomically within the locked
    range; [commit] performs the batched TLB shootdown and releases the
    locks in reverse acquisition order. Concurrent transactions serialize
    only when their ranges overlap. *)

open Mm_hal
module Pt = Mm_pt.Pt

(** The per-PTE metadata array attached to each PT page (Fig 3): the
    state that cannot live in the MMU. [live] counts the slots that are
    not [M_invalid], and [bits] (a {!Mm_util.Bitset}) marks
    exactly those slots. *)
type meta = {
  slots : Status.meta_entry Mm_util.Chunked.t;
  mutable live : int;
  bits : Bytes.t;
  slab_handle : int;
}

type node = meta Pt.node

type t

exception Bad_range of string

exception Invariant of { ctx : string; what : string }
(** A broken kernel invariant: the metadata arrays contradict the page
    table (e.g. resident metadata under an absent PTE); a dangling table
    entry raises {!Mm_pt.Pt.Ill_formed}. [ctx] names the operation that
    noticed; [what] the violated fact. Distinct from {!Bad_range} and
    [Invalid_argument] (caller contract) and from typed [Errno.t]
    results (user-visible outcomes). *)

val va_lo : int
(** Lowest user virtual address handed out by the VA allocator. *)

val create : ?va:Va_alloc.t -> Kernel.t -> Config.t -> t
val id : t -> int
val kernel : t -> Kernel.t
val config : t -> Config.t
val pt : t -> meta Pt.t
val tlb : t -> Mm_tlb.Tlb.t
val va_allocator : t -> Va_alloc.t
val page_size : t -> int

val stale_retries : t -> int
(** How many times the adv protocol's retry loop fired (Fig 6 L10-13). *)

val vm_object : t -> Vm_object.t
(** The top of this space's anonymous backing chain. Fresh spaces sit on
    a depth-one chain; [clone_for_fork] pushes a shadow per side; COW
    faults copy or promote pages into the top ({!Vm_object}). *)

val reset_vm_object : t -> unit
(** Replace the space's backing chain with a fresh anonymous object —
    exec support, called by {!Mm.destroy} after the old top is unmapped
    and unreffed so the same space can be repopulated. *)

val set_mutant_fork_skip_parent_wp : bool -> unit
(** Fault-injection mutant for the differential oracle: when armed,
    {!clone_for_fork} skips write-protecting the *parent's* private
    leaves, so post-fork parent writes land in still-shared frames and
    the child observes them. Domain-local; cleared by
    [Mm_workloads.Runner.reset_world_state]. *)

(** {2 Transactions}

    A transaction's lifecycle is [lock] → cursor operations → [commit],
    and every mutation of the address space happens inside one:

    {ol
    {- [lock t ~lo ~hi] runs the configured locking protocol over the
       page-table hierarchy and returns a {!cursor}. On return the
       calling CPU has exclusive ownership of every PT page that can
       affect [lo, hi): no other transaction whose range overlaps can
       complete its own [lock] until this cursor commits (the protocols'
       property P1 — checked abstractly by [Mm_verif.Rw_model] /
       [Adv_model] and at runtime by [Mm_verif.Live]). [lock] may park
       the calling fiber while it waits for conflicting transactions.}
    {- Cursor operations ([query], [map], [mark], [unmap], …) apply
       under those locks. They may be freely mixed and see each other's
       effects; TLB invalidations they cause are *recorded*, not yet
       performed.}
    {- [commit c] performs the batched TLB shootdown (targeting exactly
       the CPUs recorded as touchers of the affected PT pages), releases
       every lock in reverse acquisition order, and invalidates the
       cursor.}}

    Rules: a cursor must be committed exactly once ([commit] on an
    already-committed cursor raises [Invalid_argument]); a committed
    cursor must not be used again; operations must stay within
    [lo, hi) (they raise {!Bad_range} otherwise). A fiber may nest
    transactions on *different* address spaces (fork holds a parent and
    a child cursor); nesting two overlapping transactions on the same
    space self-deadlocks.

    Prefer {!with_lock}, which commits on both normal return and
    exception — an exception raised mid-transaction still releases the
    locks and flushes the recorded invalidations, leaving the protocol
    state clean. *)

type cursor

val lock_on : Mm_sim.Engine.fiber -> t -> lo:int -> hi:int -> cursor
(** Run the locking protocol for [lo, hi) (page-aligned, non-empty;
    raises {!Bad_range} otherwise) on the calling fiber, which the
    caller looked up once, and return the transaction's cursor. Every
    lock transition, page-table access, charge and line access of the
    transaction, up to the end of its [commit], runs on that fiber. *)

val lock : t -> lo:int -> hi:int -> cursor
(** [lock_on] on [Engine.fiber ()]. *)

val commit : cursor -> unit
(** The RCursor Drop (Fig 4 L23): batched TLB shootdown, then release
    all locks in reverse order. A cursor must be committed exactly once. *)

val with_lock_on :
  Mm_sim.Engine.fiber -> t -> lo:int -> hi:int -> (cursor -> 'a) -> 'a
(** [lock_on], run the function, [commit] (also on exception). *)

val with_lock : t -> lo:int -> hi:int -> (cursor -> 'a) -> 'a
(** [with_lock_on] on [Engine.fiber ()]. *)


val sync_shootdown : cursor -> unit
(** Make this transaction's commit invalidate remote TLBs before it
    returns, under every shootdown strategy and policy (no LATR
    laziness, no batching). Reclaim unmaps need this: once a page's
    contents leave memory, no CPU may keep a translation to its frame. *)

(** {2 The basic operations (Fig 4)} *)

val query : cursor -> int -> Status.t
(** Status of the virtual page at an address within the cursor's range. *)

val map :
  cursor ->
  vaddr:int ->
  frame:Mm_phys.Frame.t ->
  perm:Perm.t ->
  ?level:int ->
  ?origin:Status.origin ->
  unit ->
  unit
(** Map a physical frame (or, with [level] > 1, a huge block) at [vaddr],
    replacing any existing leaf; records the reverse mapping and installs
    the caller's TLB entry. *)

val mark : cursor -> lo:int -> hi:int -> Status.t -> unit
(** Set the status of a range (virtually allocate it), clearing whatever
    was there — one upper-level metadata entry can stand for a whole
    aligned slot. The status must be a virtually-allocated one. Marks
    carry the default NUMA policy; use {!update_policy} to attach a
    different one. *)

val update_policy : cursor -> lo:int -> hi:int -> Numa.policy -> unit
(** The single policy-update path: rewrite the NUMA policy stored in the
    virtually-allocated slots of the range (paper §4.5). Used both by
    mmap-with-policy (a [mark] followed by [update_policy]) and by mbind;
    mbind semantics throughout — resident pages are not migrated, and
    slots that are not virtually allocated are left untouched. *)

val policy_at : cursor -> int -> Numa.policy
(** The policy recorded for an unmapped page (the fault path's input). *)

val unmap : cursor -> lo:int -> hi:int -> unit
(** Clear the range: present leaves are unmapped (releasing sole-owner
    anonymous frames), marks and swap slots are dropped, and PT pages
    that become empty are removed — RCU-deferred under the adv protocol
    (Fig 6 L29-35), direct under rw. *)

val protect : cursor -> lo:int -> hi:int -> Perm.t -> unit
(** Change permissions over the range, preserving mappings and marks
    (mprotect); the COW bit of present leaves is preserved. *)

val remap_pte : cursor -> vaddr:int -> pfn:int -> perm:Perm.t -> unit
(** Raw PTE rewrite of one present page — COW breaks and fork's
    write-protect pass, where [protect]'s COW-preservation does not fit. *)

val set_swapped :
  cursor -> vaddr:int -> dev:Blockdev.t -> block:int -> perm:Perm.t -> unit
(** Record a swapped-out page (the slot must be absent). *)

val record_toucher : cursor -> vaddr:int -> unit
(** Note the calling CPU as a TLB holder of the page's PT node. *)

val iter_slots : cursor -> lo:int -> hi:int -> (int -> int -> Status.t -> unit) -> unit
(** Enumerate non-invalid slots as [(vaddr, bytes, status)] — address-
    space enumeration by page-table walk (the paper's §6.2 worst case). *)

val move_range : cursor -> old_lo:int -> old_hi:int -> new_lo:int -> unit
(** Relocate the pages of the old range to [new_lo] (mremap's move):
    frames keep their identity and map counts, marks and swap slots are
    copied, old TLB entries are flushed at commit. The cursor must cover
    both ranges. *)

val clone_for_fork : cursor -> cursor -> unit
(** Fork: stream-copy the parent's page-table subtree (PTE and metadata
    arrays) into the empty child, write-protecting private mappings on
    both sides (COW) and duplicating swap slots. Both cursors must cover
    the full address space. *)

val promote_huge : cursor -> vaddr:int -> bool
(** Promote a fully-populated level-1 PT page of uniform, singly-mapped
    anonymous pages into one 2 MiB huge leaf (khugepaged-style; copies
    into a fresh physically-contiguous block). The cursor must cover the
    parent (lock a range spanning two level-2 slots). *)

val l1_full : t -> int -> bool
(** Lock-free peek: is the leaf PT page of [vaddr] fully populated? *)

val origin_at : cursor -> int -> Status.meta_entry

(** {2 Accounting and invariants} *)

type mem_stats = {
  pt_pages : int;
  pt_bytes : int;
  meta_arrays : int;
  meta_bytes : int;
}

val mem_stats : t -> mem_stats

val meta_bytes_upper_bound : t -> int
(** Fig 22's upper bound: every PT page with a fully populated array. *)

val check_well_formed : t -> unit
(** The Fig 12 page-table well-formedness invariant, plus each metadata
    array's: its occupancy bits mark exactly the slots that are not
    [M_invalid], and [live] counts them. Raises {!Mm_pt.Pt.Ill_formed} on
    violation. *)
