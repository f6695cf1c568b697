(* The transactional interface to program the MMU — the paper's central
   contribution (Fig 4), with both locking protocols:

   - [lock asp ~lo ~hi] runs the locking protocol (CortenMM_rw, Fig 5, or
     CortenMM_adv, Fig 6) and returns a cursor;
   - the cursor supports [query], [map], [mark], [protect] and [unmap],
     all applied atomically within the locked range;
   - [commit] (the Drop impl) performs the batched TLB shootdown and
     releases the locks in reverse acquisition order.

   Metadata: each PT page owns an on-demand per-PTE metadata array storing
   the state that cannot live in the MMU (Fig 3). An upper-level slot whose
   PTE is absent can carry a mark covering its whole range; creating a
   child under such a slot pushes the mark down. Each array keeps an
   occupancy bitset of its non-invalid slots beside the PT page's own,
   so scans visit only slots that hold a PTE or metadata, and stores its
   slots in 64-entry chunks allocated by the first valid store into
   each. *)

open Mm_hal
module Pt = Mm_pt.Pt

type meta = {
  slots : Status.meta_entry Mm_util.Chunked.t;
  mutable live : int;
  bits : Bytes.t; (* occupancy: bit [i] set iff [slots.(i)] is not invalid *)
  slab_handle : int; (* where this array lives in the metadata slab *)
}
type node = meta Pt.node

type t = {
  id : int;
  kernel : Kernel.t;
  cfg : Config.t;
  pt : meta Pt.t;
  page_size : int;
  tlb : Mm_tlb.Tlb.t;
  va : Va_alloc.t;
  meta_cache : Mm_phys.Slab.t; (* slab backing the per-PTE metadata arrays *)
  no_meta : Bytes.t; (* empty occupancy bits, for PT pages without metadata *)
  mutable meta_arrays : int;
  mutable meta_bytes : int;
  mutable stale_retries : int; (* CortenMM_adv retry-loop executions *)
  mutable obj : Vm_object.t;
      (* top of this space's anonymous backing chain (COW fork shadows) *)
}

exception Bad_range of string

(* A broken *kernel* invariant — the metadata arrays contradict the page
   table (resident metadata under an absent PTE, ...; a dangling table
   entry is [Pt.Ill_formed]). Distinct from [Bad_range]/[Invalid_argument]
   (caller contract) and from the typed [Errno.t] results (user-visible
   outcomes): an [Invariant] means the simulated kernel itself is wrong,
   so it carries the operation and the violated fact for the report. *)
exception Invariant of { ctx : string; what : string }

let () =
  Printexc.register_printer (function
    | Invariant { ctx; what } ->
      Some (Printf.sprintf "Addr_space.Invariant(%s: %s)" ctx what)
    | _ -> None)

let invariant ~ctx what = raise (Invariant { ctx; what })

(* Fault-injection mutant for the differential oracle: when armed,
   [clone_for_fork] "forgets" to write-protect the *parent's* private
   leaves (the child still gets its read-only COW copies), so post-fork
   parent writes land in the still-shared frames and the child observes
   them. Domain-local like the lock-model mutants; cleared by
   [Mm_workloads.Runner.reset_world_state]. *)
let mutant_fork_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let set_mutant_fork_skip_parent_wp v = Domain.DLS.get mutant_fork_key := v
let mutant_fork_skip_parent_wp () = !(Domain.DLS.get mutant_fork_key)

(* User virtual address layout: skip the first 256 MiB (NULL guard, kernel
   image analog), use the rest of the canonical range. *)
let va_lo = 0x1000_0000

let create ?va kernel (cfg : Config.t) =
  let geo = kernel.Kernel.isa.Isa.geo in
  let page_size = Geometry.page_size geo in
  let t =
    {
    id = Kernel.fresh_asp_id kernel;
    kernel;
    cfg;
    pt = Pt.create kernel.Kernel.phys kernel.Kernel.isa;
    page_size;
    tlb =
      Mm_tlb.Tlb.create ~ncpus:kernel.Kernel.ncpus
        ~strategy:cfg.Config.tlb_strategy ();
    va =
      (match va with
      | Some v -> v
      | None ->
        Va_alloc.create ~ncpus:kernel.Kernel.ncpus
          ~per_core:cfg.Config.per_core_va ~va_lo
          ~va_hi:(Geometry.va_limit geo) ~page_size);
    meta_cache =
      Mm_phys.Slab.create kernel.Kernel.phys ~name:"pte_metadata"
        ~obj_size:
          (Geometry.entries geo * Status.meta_entry_bytes);
    no_meta = Mm_util.Bitset.create (Geometry.entries geo);
    meta_arrays = 0;
    meta_bytes = 0;
    stale_retries = 0;
    obj = Vm_object.create_anon ();
    }
  in
  (* Name the root PT page's locks: the root is the protocol's global
     serialization point, so it dominates contention reports. *)
  let root = Pt.root t.pt in
  Mm_sim.Mutex_s.set_name (Pt.lock t.pt root)
    (Printf.sprintf "asp%d.root_pt" t.id);
  Mm_sim.Rwlock_s.set_name (Pt.rwlock t.pt root)
    (Printf.sprintf "asp%d.root_pt" t.id);
  t

let id t = t.id
let kernel t = t.kernel
let config t = t.cfg
let pt t = t.pt
let tlb t = t.tlb
let va_allocator t = t.va
let page_size t = t.page_size
let stale_retries t = t.stale_retries
let vm_object t = t.obj

(* exec support: once every mapping is gone, the space drops its whole
   shadow chain and starts over on a fresh anonymous object (the caller
   unrefs the old top). *)
let reset_vm_object t = t.obj <- Vm_object.create_anon ()

(* -- Metadata arrays -- *)

let entries_per_node t = Pt.entries_per_node t.pt

(* [f] is the transaction's fiber: metadata is allocated and written only
   under a cursor. *)
let meta_of f t (node : node) =
  match node.Pt.meta with
  | Some m -> m
  | None ->
    Mm_sim.Engine.tick_on f Mm_sim.Cost.meta_array_alloc;
    let n = entries_per_node t in
    let m =
      {
        slots = Mm_util.Chunked.create n ~absent:Status.M_invalid;
        live = 0;
        bits = Mm_util.Bitset.create n;
        slab_handle = Mm_phys.Slab.alloc t.meta_cache;
      }
    in
    node.Pt.meta <- Some m;
    t.meta_arrays <- t.meta_arrays + 1;
    t.meta_bytes <- t.meta_bytes + (n * Status.meta_entry_bytes);
    m

let meta_get (node : node) idx =
  match node.Pt.meta with
  | None -> Status.M_invalid
  | Some m -> Mm_util.Chunked.get m.slots idx

(* Write one slot, keeping [live] and the occupancy bits in step. *)
let meta_store m idx v =
  let old = Mm_util.Chunked.get m.slots idx in
  Mm_util.Chunked.set m.slots idx v;
  match (old, v) with
  | Status.M_invalid, Status.M_invalid -> ()
  | Status.M_invalid, _ ->
    m.live <- m.live + 1;
    Mm_util.Bitset.add m.bits idx
  | _, Status.M_invalid ->
    m.live <- m.live - 1;
    Mm_util.Bitset.remove m.bits idx
  | _, _ -> ()

let meta_set f t (node : node) idx v =
  let m = meta_of f t node in
  Mm_sim.Engine.tick_on f Mm_sim.Cost.meta_write;
  meta_store m idx v

let meta_live (node : node) =
  match node.Pt.meta with None -> 0 | Some m -> m.live

(* The first slot in [i, stop) holding a present PTE or metadata, or
   [stop]. The node's metadata is looked up on every call: an unmap can
   attach an array mid-scan. *)
let next_occupied t (node : node) i ~stop =
  let bits = match node.Pt.meta with Some m -> m.bits | None -> t.no_meta in
  Pt.next_present_or t.pt node bits i ~stop

let release_meta t (node : node) =
  match node.Pt.meta with
  | None -> ()
  | Some m ->
    let n = entries_per_node t in
    node.Pt.meta <- None;
    t.meta_arrays <- t.meta_arrays - 1;
    t.meta_bytes <- t.meta_bytes - (n * Status.meta_entry_bytes);
    Mm_phys.Slab.free t.meta_cache m.slab_handle

(* -- Cursor -- *)

type cursor = {
  asp : t;
  lo : int;
  hi : int;
  fiber : Mm_sim.Engine.fiber;
      (* The transaction's fiber, looked up once: every lock transition,
         PT access, charge and line access up to the end of [commit]
         runs on it. *)
  fo : Mm_sim.Engine.fiber option; (* [Some fiber], for [Pt]'s [_on] forms *)
  covering : node;
  read_path : node list; (* rw: read-locked ancestors, deepest first *)
  mutable locked : node list; (* locked nodes, most recent first *)
  mutable tlb_pending : (int * int) list; (* (first vpn, page count) *)
  mutable tlb_targets : int; (* CPUs that may cache the flushed entries *)
  mutable sync_shootdown : bool;
      (* The commit's shootdown must complete remotely before the commit
         returns, whatever the strategy and policy (reclaim unmaps). *)
  mutable deferred_frames : Mm_phys.Frame.t list;
      (* Frames whose free must wait for the commit's shootdown to
         actually flush (only populated under a batched TLB policy). *)
  mutable committed : bool;
}

let sync_shootdown c = c.sync_shootdown <- true

let cursor f fo t ~lo ~hi ~covering ~read_path ~locked =
  {
    asp = t;
    lo;
    hi;
    fiber = f;
    fo;
    covering;
    read_path;
    locked;
    tlb_pending = [];
    tlb_targets = 0;
    sync_shootdown = false;
    deferred_frames = [];
    committed = false;
  }

(* -- CortenMM_rw locking protocol (Fig 5) --

   Descend from the root read-locking each page above the covering one;
   [path] collects them deepest first, the order [commit] releases them
   in. *)

let rec rw_descend f fo t ~lo ~hi (cur : node) path =
  let idx = Pt.covering_slot t.pt cur ~lo ~hi in
  if idx < 0 then begin
    Mm_sim.Rwlock_s.write_lock_on f (Pt.rwlock t.pt cur);
    cursor f fo t ~lo ~hi ~covering:cur ~read_path:path ~locked:[ cur ]
  end
  else begin
    Mm_sim.Rwlock_s.read_lock_on f (Pt.rwlock t.pt cur);
    match Pt.get_on fo t.pt cur idx with
    | Pte.Table _ ->
      rw_descend f fo t ~lo ~hi (Pt.child t.pt cur idx) (cur :: path)
    | Pte.Absent | Pte.Leaf _ ->
      (* [cur] is the lowest existing covering page: trade the reader
         lock for the writer lock (Fig 5 L7-8). *)
      Mm_sim.Rwlock_s.read_unlock_on f (Pt.rwlock t.pt cur);
      Mm_sim.Rwlock_s.write_lock_on f (Pt.rwlock t.pt cur);
      cursor f fo t ~lo ~hi ~covering:cur ~read_path:path ~locked:[ cur ]
  end


(* -- CortenMM_adv locking protocol (Fig 6) -- *)

(* Traversal phase: lock-free descent to the covering PT page. *)
let rec adv_descend fo t ~lo ~hi (cur : node) =
  let idx = Pt.covering_slot t.pt cur ~lo ~hi in
  if idx < 0 then cur
  else
    match Pt.get_atomic_on fo t.pt cur idx with
    | Pte.Table _ -> adv_descend fo t ~lo ~hi (Pt.child t.pt cur idx)
    | Pte.Absent | Pte.Leaf _ -> cur

(* Locking phase: preorder DFS over all descendants (Fig 6 L17),
   locking each child PT page as the scan of its parent meets it and
   pushing it on [locked]. Finding the children is a streaming scan of
   each PT page. *)
let rec adv_lock_below f fo t ~n (node : node) locked =
  if node.Pt.level <= 1 then locked
  else begin
    Pt.charge_node_scan_on fo t.pt;
    adv_lock_from f fo t ~n node (Pt.next_present t.pt node 0 ~stop:n) locked
  end

and adv_lock_from f fo t ~n (node : node) i locked =
  if i >= n then locked
  else
    let locked =
      match Pt.get_uncharged t.pt node i with
      | Pte.Table _ ->
        let child = Pt.child t.pt node i in
        Mm_sim.Mutex_s.lock_on f (Pt.lock t.pt child);
        adv_lock_below f fo t ~n child (child :: locked)
      | Pte.Absent | Pte.Leaf _ -> locked
    in
    adv_lock_from f fo t ~n node (Pt.next_present t.pt node (i + 1) ~stop:n)
      locked

let rec adv_lock f fo t ~lo ~hi =
  let rcu = t.kernel.Kernel.rcu in
  Mm_sim.Rcu_s.read_lock_on f rcu;
  let cover = adv_descend fo t ~lo ~hi (Pt.root t.pt) in
  Mm_sim.Mutex_s.lock_on f (Pt.lock t.pt cover);
  if Mm_phys.Phys.stale t.kernel.Kernel.phys cover.Pt.frame then begin
    (* Race with a concurrent unmap that removed this PT page: retry
       (Fig 6 L10-13). *)
    Mm_sim.Mutex_s.unlock_on f (Pt.lock t.pt cover);
    Mm_sim.Rcu_s.read_unlock_on f rcu;
    t.stale_retries <- t.stale_retries + 1;
    if Mm_obs.Trace.on () then begin
      Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "addr_space.stale_retries");
      Mm_sim.Engine.obs_on f Mm_obs.Event.Stale_retry
    end;
    adv_lock f fo t ~lo ~hi
  end
  else begin
    Mm_sim.Rcu_s.read_unlock_on f rcu;
    let locked =
      adv_lock_below f fo t ~n:(entries_per_node t) cover [ cover ]
    in
    cursor f fo t ~lo ~hi ~covering:cover ~read_path:[] ~locked
  end

let check_range t ~lo ~hi =
  let ps = page_size t in
  if hi <= lo then raise (Bad_range "empty range");
  if not (Mm_util.Align.is_aligned lo ps && Mm_util.Align.is_aligned hi ps)
  then raise (Bad_range "range not page aligned");
  if lo < 0 || hi > Geometry.va_limit t.kernel.Kernel.isa.Isa.geo then
    raise (Bad_range "range outside the virtual address space")

let lock_on (f : Mm_sim.Engine.fiber) t ~lo ~hi =
  check_range t ~lo ~hi;
  let t0 = f.f_time and fo = Some f in
  let c =
    match t.cfg.Config.protocol with
    | Config.Rw -> rw_descend f fo t ~lo ~hi (Pt.root t.pt) []
    | Config.Adv -> adv_lock f fo t ~lo ~hi
  in
  if Mm_obs.Trace.on () then begin
    let span = f.f_time - t0 in
    Mm_obs.Metrics.observe
      (Mm_obs.Metrics.histogram "cursor.lock_cycles")
      span;
    Mm_sim.Engine.obs_on f
      (Mm_obs.Event.Cursor_lock
         { asp = t.id; lo; hi; locked = List.length c.locked; span })
  end;
  c

let lock t ~lo ~hi = lock_on (Mm_sim.Engine.fiber ()) t ~lo ~hi

(* -- Commit (RCursor Drop, Fig 4 L23) -- *)

let full_flush_threshold = 64

(* Release frames unmapped under a deferring TLB policy. This runs as the
   shootdown's [on_flush] hook, possibly from a later flush on another
   fiber, so it charges whichever fiber is running. *)
let free_frames t frames () =
  List.iter
    (fun (frame : Mm_phys.Frame.t) ->
      Mm_sim.Engine.charge Mm_sim.Cost.page_free;
      if Mm_obs.Trace.on () then
        Mm_sim.Engine.obs
          (Mm_obs.Event.Frame_freed
             {
               pfn = (frame :> int);
               pages = 1 lsl Mm_phys.Phys.order t.kernel.Kernel.phys frame;
             });
      Mm_phys.Phys.free t.kernel.Kernel.phys frame)
    frames

let rec write_unlock_all f t = function
  | [] -> ()
  | (n : node) :: rest ->
    Mm_sim.Rwlock_s.write_unlock_on f (Pt.rwlock t.pt n);
    write_unlock_all f t rest

let rec read_unlock_all f t = function
  | [] -> ()
  | (n : node) :: rest ->
    Mm_sim.Rwlock_s.read_unlock_on f (Pt.rwlock t.pt n);
    read_unlock_all f t rest

let rec unlock_all f t = function
  | [] -> ()
  | (n : node) :: rest ->
    Mm_sim.Mutex_s.unlock_on f (Pt.lock t.pt n);
    unlock_all f t rest

let rec pending_pages acc = function
  | [] -> acc
  | (_, n) :: rest -> pending_pages (acc + n) rest

let commit c =
  if c.committed then invalid_arg "Addr_space.commit: cursor already dropped";
  c.committed <- true;
  let t = c.asp and f = c.fiber in
  (* Announced before the unlocks: releasing a contended lock yields to
     the scheduler ([serialize] inside the lock model), so a fiber
     waiting on this range can acquire it — and emit its Txn_locked —
     while we are still mid-release. The transaction performs no cursor
     operations after this point, so ending its monitored lifetime here
     keeps the overlap check sound without false positives on legal
     handoffs. *)
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs_on f
      (Mm_obs.Event.Txn_committed { asp = t.id; lo = c.lo; hi = c.hi });
  (* Frames unmapped under a deferring TLB policy are released only once
     the shootdown that invalidates their translations has actually
     flushed — [Tlb.shootdown]'s [on_flush] hook (async unmap). The
     cursor's list is captured here so the callback owns the frames
     regardless of when the batch completes. *)
  let on_flush =
    match c.deferred_frames with
    | [] -> None
    | frames ->
      c.deferred_frames <- [];
      Some (free_frames t (List.rev frames))
  in
  (* Batched TLB shootdown for everything this transaction invalidated. *)
  (match c.tlb_pending with
  | [] -> Option.iter (fun free -> free ()) on_flush
  | pending ->
    let vpns =
      if pending_pages 0 pending > full_flush_threshold then
        (* Beyond the threshold a real kernel flushes the whole TLB; we
           enumerate a bounded set for the table model and charge the
           full-flush cost through the list length cap. *)
        List.concat_map
          (fun (v0, n) -> List.init (min n full_flush_threshold) (fun i -> v0 + i))
          pending
      else List.concat_map (fun (v0, n) -> List.init n (fun i -> v0 + i)) pending
    in
    (* Shoot down only the CPUs recorded as having installed translations
       under the affected PT pages ("CPUs that may require the TLB
       shootdown", paper §4.5), not the whole address-space mask. *)
    let targets =
      Array.init t.kernel.Kernel.ncpus (fun i ->
          c.tlb_targets land (1 lsl i) <> 0)
    in
    Mm_tlb.Tlb.shootdown_on f ?on_flush ~sync:c.sync_shootdown t.tlb ~targets
      ~vpns);
  (* Release locks in reverse acquisition order. *)
  (match t.cfg.Config.protocol with
  | Config.Adv -> unlock_all f t c.locked
  | Config.Rw ->
    write_unlock_all f t c.locked;
    read_unlock_all f t c.read_path);
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs_on f
      (Mm_obs.Event.Cursor_commit
         { lo = c.lo; hi = c.hi; flushed = pending_pages 0 c.tlb_pending })

let with_lock_on f t ~lo ~hi fn =
  let c = lock_on f t ~lo ~hi in
  match fn c with
  | v ->
    commit c;
    v
  | exception e ->
    commit c;
    raise e

let with_lock t ~lo ~hi fn = with_lock_on (Mm_sim.Engine.fiber ()) t ~lo ~hi fn

(* -- Internal navigation helpers (operate under the cursor's locks) -- *)

let in_range c ~lo ~hi =
  if lo < c.lo || hi > c.hi then
    raise
      (Bad_range
         (Printf.sprintf "[%#x,%#x) outside cursor range [%#x,%#x)" lo hi c.lo
            c.hi))

(* Advance a file/shm origin by a byte offset (anonymous origins are
   position-independent). *)
let origin_advance origin ~by =
  match origin with
  | Status.O_anon -> Status.O_anon
  | Status.O_file (f, off) -> Status.O_file (f, off + by)
  | Status.O_shm (f, off) -> Status.O_shm (f, off + by)

(* Push a parent-level mark down into a freshly created child: each child
   slot receives the mark with its file offset advanced to its position.
   An anonymous mark is the same at every position, so its slots share
   one record. *)
let push_down_mark c (parent : node) idx (child : node) =
  let t = c.asp in
  match meta_get parent idx with
  | Status.M_invalid -> ()
  | Status.M_alloc { origin; perm; policy } as mark ->
    (* Bulk fill: one streaming pass over the child's array, not 512
       individually-charged stores. *)
    let child_cov = Pt.entry_coverage t.pt child in
    let m = meta_of c.fiber t child in
    Mm_sim.Engine.tick_on c.fiber Mm_sim.Cost.meta_bulk_fill;
    let n = entries_per_node t in
    (match origin with
    | Status.O_anon -> Mm_util.Chunked.fill m.slots mark
    | Status.O_file _ | Status.O_shm _ ->
      for i = 0 to n - 1 do
        let origin = origin_advance origin ~by:(i * child_cov) in
        Mm_util.Chunked.set m.slots i (Status.M_alloc { origin; perm; policy })
      done);
    m.live <- n;
    Mm_util.Bitset.fill m.bits ~from:0 ~stop:n;
    meta_set c.fiber t parent idx Status.M_invalid
  | Status.M_resident _ | Status.M_swapped _ ->
    invariant ~ctx:"push_down_mark" "non-mark metadata on a table slot"

(* Create (or fetch) the child under [idx], locking it when the protocol
   requires (new PT pages are born locked so a concurrent lock-free
   traversal cannot slip under our transaction). *)
let ensure_child c (parent : node) idx =
  let t = c.asp in
  match Pt.get_on c.fo t.pt parent idx with
  | Pte.Table _ -> Pt.child t.pt parent idx
  | Pte.Absent | Pte.Leaf _ ->
    let child = Pt.ensure_child_on c.fo t.pt parent idx in
    (match t.cfg.Config.protocol with
    | Config.Adv ->
      Mm_sim.Mutex_s.lock_on c.fiber (Pt.lock t.pt child);
      c.locked <- child :: c.locked
    | Config.Rw ->
      (* Reachable only through the write-locked covering page. *)
      ());
    push_down_mark c parent idx child;
    child

(* The node at [to_level] toward [vaddr], creating missing PT pages
   below the covering page. *)
let node_for c vaddr ~to_level =
  let cur = ref c.covering in
  while !cur.Pt.level <> to_level do
    cur := ensure_child c !cur (Pt.index c.asp.pt ~level:!cur.Pt.level ~vaddr)
  done;
  !cur

(* -- Freeing empty PT pages -- *)

let subtree_nodes t (node : node) =
  let acc = ref [] in
  Pt.iter_subtree t.pt node (fun n -> acc := n :: !acc);
  !acc (* children before parents: reverse preorder *)

(* Remove the child under [parent].[idx]; the subtree must already be
   empty of mappings and marks. *)
let free_child c (parent : node) idx (child : node) =
  let t = c.asp in
  let detached = Pt.detach_child_on c.fo t.pt parent idx in
  assert (detached == child);
  let nodes = subtree_nodes t child in
  if Mm_obs.Trace.on () then begin
    Mm_obs.Metrics.add
      (Mm_obs.Metrics.counter "addr_space.pt_pages_freed")
      (List.length nodes);
    Mm_sim.Engine.obs_on c.fiber
      (Mm_obs.Event.Pt_free
         { level = child.Pt.level; pages = List.length nodes })
  end;
  (match t.cfg.Config.protocol with
  | Config.Adv ->
    (* Fig 6 L29-35: mark stale and unlock bottom-up, then hand the pages
       to the RCU monitor. *)
    List.iter
      (fun (n : node) ->
        Mm_phys.Phys.set_stale t.kernel.Kernel.phys n.Pt.frame true;
        Mm_sim.Mutex_s.unlock_on c.fiber (Pt.lock t.pt n);
        c.locked <- List.filter (fun x -> not (x == n)) c.locked)
      nodes;
    (* The callback may run at another fiber's read-side exit: it
       charges whichever fiber is running. *)
    Mm_sim.Rcu_s.defer_on c.fiber t.kernel.Kernel.rcu (fun () ->
        List.iter
          (fun (n : node) ->
            release_meta t n;
            n.Pt.parent <- None;
            Pt.free_node t.pt n)
          nodes)
  | Config.Rw ->
    (* The write-locked covering page makes the subtree exclusively ours:
       free directly. *)
    List.iter
      (fun (n : node) ->
        release_meta t n;
        n.Pt.parent <- None;
        Pt.free_node_on c.fo t.pt n)
      nodes)

let node_is_empty (node : node) = node.Pt.present = 0 && meta_live node = 0

(* -- Leaf plumbing -- *)

let origin_of_status = function
  | Status.Private_anon _ -> Status.O_anon
  | Status.Private_file { file; offset; _ } -> Status.O_file (file, offset)
  | Status.Shared_anon { shm; offset; _ } -> Status.O_shm (shm, offset)
  | Status.Invalid | Status.Mapped _ | Status.Swapped _ ->
    invalid_arg "origin_of_status: not a virtually-allocated status"

let status_of_mark ~origin ~perm =
  match origin with
  | Status.O_anon -> Status.Private_anon perm
  | Status.O_file (file, offset) -> Status.Private_file { file; offset; perm }
  | Status.O_shm (shm, offset) -> Status.Shared_anon { shm; offset; perm }

let vpn_of t vaddr = vaddr / page_size t

(* Rewrite a live leaf in place, honouring ARM's break-before-make: the
   entry is first invalidated and the TLB entry flushed before the new
   translation is written (paper §4.5). *)
let rewrite_live_leaf c (node : node) idx pte =
  let t = c.asp in
  if Isa.needs_break_before_make t.kernel.Kernel.isa then begin
    Pt.set_on c.fo t.pt node idx Pte.Absent;
    Mm_sim.Engine.tick_on c.fiber Mm_sim.Cost.tlb_flush_page
  end;
  Pt.set_on c.fo t.pt node idx pte

let note_tlb c ~vaddr ~pages =
  c.tlb_pending <- (vpn_of c.asp vaddr, pages) :: c.tlb_pending

(* Release (or defer) one fully-unmapped anonymous frame. Under an
   [Immediate] TLB policy the free happens right here, as it always has;
   under a deferring policy the frame joins the cursor's deferred list
   and is released by the commit shootdown's [on_flush] — after the
   remote translations are gone, so no CPU can reach a reused frame
   through a stale TLB entry. *)
let free_or_defer c (frame : Mm_phys.Frame.t) =
  let t = c.asp in
  if Mm_tlb.Tlb.deferring t.tlb then begin
    c.deferred_frames <- frame :: c.deferred_frames;
    if Mm_obs.Trace.on () then
      Mm_sim.Engine.obs_on c.fiber
        (Mm_obs.Event.Frame_deferred
           {
             pfn = (frame :> int);
             pages = 1 lsl Mm_phys.Phys.order t.kernel.Kernel.phys frame;
           })
  end
  else begin
    Mm_sim.Engine.tick_on c.fiber Mm_sim.Cost.page_free;
    Mm_phys.Phys.free t.kernel.Kernel.phys frame
  end

(* Drop one present leaf: clear the PTE and release the physical page(s).
   [idx] addresses the slot in [node]; the leaf may be huge. *)
let unmap_leaf c (node : node) idx (pfn, (perm : Perm.t)) =
  let t = c.asp in
  let geo = t.kernel.Kernel.isa.Isa.geo in
  let pages = Geometry.pages_per_entry geo ~level:node.Pt.level in
  let vaddr = Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node) in
  ignore perm;
  let origin = meta_get node idx in
  Pt.set_on c.fo t.pt node idx Pte.Absent;
  meta_set c.fiber t node idx Status.M_invalid;
  note_tlb c ~vaddr ~pages;
  c.tlb_targets <- c.tlb_targets lor node.Pt.touched;
  let phys = t.kernel.Kernel.phys in
  let frame = Mm_phys.Phys.frame phys pfn in
  Mm_sim.Engine.Line.rmw_on c.fiber (Mm_phys.Phys.line phys frame);
  let last = Mm_phys.Phys.drop_map phys frame in
  (match origin with
  | Status.M_resident Status.O_anon ->
    Kernel.rmap_remove t.kernel ~pfn ~asp_id:t.id ~vaddr;
    if last then begin
      (* Last mapping gone: retire the ownership record too, wherever it
         sits in this space's shadow chain. *)
      Vm_object.forget t.obj ~vpn:(vpn_of t vaddr);
      free_or_defer c frame
    end
  | Status.M_resident (Status.O_file (file, _))
  | Status.M_resident (Status.O_shm (file, _)) ->
    (* Page-cache pages stay resident in the file object. *)
    File.remove_mapper file ~asp_id:t.id ~map_vaddr:vaddr
  | Status.M_invalid ->
    (* A raw map without recorded origin (test scaffolding). *)
    if last then free_or_defer c frame
  | Status.M_alloc _ | Status.M_swapped _ ->
    invariant ~ctx:"unmap_leaf" "inconsistent metadata under a present PTE")

(* Split a huge leaf at [node].[idx] into a child PT page of 4 KiB (or
   2 MiB) leaves so a partial-range operation can proceed. The physical
   block is contiguous, so child leaves address consecutive sub-blocks. *)
let split_huge c (node : node) idx (l : Pte.t) =
  let t = c.asp in
  match l with
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if Mm_obs.Trace.on () then begin
      Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "addr_space.pt_splits");
      Mm_sim.Engine.obs_on c.fiber
        (Mm_obs.Event.Pt_split
           { vaddr = Pt.node_base t.pt node; level = node.Pt.level })
    end;
    let origin = meta_get node idx in
    let n = entries_per_node t in
    let geo = t.kernel.Kernel.isa.Isa.geo and phys = t.kernel.Kernel.phys in
    let sub_pages = Geometry.pages_per_entry geo ~level:(node.Pt.level - 1) in
    (* Detach the leaf first, then build the child and link it. *)
    Pt.set_on c.fo t.pt node idx Pte.Absent;
    meta_set c.fiber t node idx Status.M_invalid;
    let child = Pt.alloc_node_on c.fo t.pt ~level:(node.Pt.level - 1) in
    (match t.cfg.Config.protocol with
    | Config.Adv ->
      Mm_sim.Mutex_s.lock_on c.fiber (Pt.lock t.pt child);
      c.locked <- child :: c.locked
    | Config.Rw -> ());
    let sub_bytes = Geometry.coverage geo ~level:(node.Pt.level - 1) in
    for i = 0 to n - 1 do
      Pt.set_on c.fo t.pt child i
        (Pte.Leaf { pfn = pfn + (i * sub_pages); perm; accessed; dirty; global });
      (match origin with
      | Status.M_invalid -> ()
      | Status.M_resident o ->
        meta_set c.fiber t child i
          (Status.M_resident (origin_advance o ~by:(i * sub_bytes)))
      | Status.M_alloc _ | Status.M_swapped _ ->
        invariant ~ctx:"split_huge" "non-resident metadata under a present leaf");
      (* Each sub-block head now carries its own map count. *)
      Mm_phys.Phys.add_map phys (Mm_phys.Phys.frame phys (pfn + (i * sub_pages)))
    done;
    (* The huge frame head loses its single mapping. *)
    ignore (Mm_phys.Phys.drop_map phys (Mm_phys.Phys.frame phys pfn) : bool);
    Pt.set_child_on c.fo t.pt node idx child;
    child
  | Pte.Absent | Pte.Table _ -> invalid_arg "split_huge: not a leaf"

(* -- The four basic operations (Fig 4) -- *)

(* The descents below the covering page recurse through top-level
   functions, so a query allocates only its result. *)
let rec query_below c ~vaddr (cur : node) : Status.t =
  let t = c.asp in
  let idx = Pt.index t.pt ~level:cur.Pt.level ~vaddr in
  match Pt.get_on c.fo t.pt cur idx with
  | Pte.Leaf { pfn; perm; _ } ->
    let off = (vaddr mod Pt.entry_coverage t.pt cur) / page_size t in
    Status.Mapped { pfn = pfn + off; perm }
  | Pte.Table _ -> query_below c ~vaddr (Pt.child t.pt cur idx)
  | Pte.Absent -> (
    match meta_get cur idx with
    | Status.M_invalid -> Status.Invalid
    | Status.M_alloc { origin; perm; _ } -> status_of_mark ~origin ~perm
    | Status.M_swapped { dev; block; perm } ->
      Status.Swapped { dev; block; perm }
    | Status.M_resident _ ->
      invariant ~ctx:"query" "resident metadata under an absent PTE")

let query c vaddr =
  in_range c ~lo:vaddr ~hi:(vaddr + page_size c.asp);
  query_below c ~vaddr c.covering

(* Map one physical page (or huge block) at [vaddr]. *)
let map c ~vaddr ~(frame : Mm_phys.Frame.t) ~perm ?(level = 1)
    ?(origin = Status.O_anon) () =
  let t = c.asp in
  let geo = t.kernel.Kernel.isa.Isa.geo in
  let bytes = Geometry.coverage geo ~level in
  in_range c ~lo:vaddr ~hi:(vaddr + bytes);
  if not (Mm_util.Align.is_aligned vaddr bytes) then
    raise (Bad_range "map: vaddr not aligned for the mapping level");
  let node = node_for c vaddr ~to_level:level in
  let idx = Pt.index t.pt ~level ~vaddr in
  (match Pt.get_on c.fo t.pt node idx with
  | Pte.Leaf { pfn; perm; _ } -> unmap_leaf c node idx (pfn, perm)
  | Pte.Table _ -> invalid_arg "map: range contains a finer-grained subtree"
  | Pte.Absent -> ());
  let pfn = (frame :> int) and phys = t.kernel.Kernel.phys in
  Pt.set_on c.fo t.pt node idx (Pte.leaf ~accessed:true ~pfn ~perm ());
  meta_set c.fiber t node idx (Status.M_resident origin);
  let f = c.fiber in
  node.Pt.touched <- node.Pt.touched lor (1 lsl f.f_cpu);
  Mm_sim.Engine.Line.rmw_on f (Mm_phys.Phys.line phys frame);
  Mm_phys.Phys.add_map phys frame;
  (match origin with
  | Status.O_anon ->
    Kernel.rmap_add t.kernel ~pfn ~asp_id:t.id ~vaddr;
    (* The page enters this space's top backing object: a fresh private
       page, a COW copy, or a swapped-in page all belong to the chain
       top (shared pre-fork pages stay recorded in the chain parent). *)
    Vm_object.install t.obj ~vpn:(vpn_of t vaddr) ~pfn
  | Status.O_file (file, offset) | Status.O_shm (file, offset) ->
    File.add_mapper file
      { File.asp_id = t.id; map_vaddr = vaddr; file_offset = offset;
        len = bytes });
  (* Install the translation in the faulting CPU's TLB. *)
  Mm_tlb.Tlb.install t.tlb ~cpu:f.f_cpu ~vpn:(vpn_of t vaddr) ~pfn
    ~writable:(perm.Perm.write && not perm.Perm.cow)
    ~key:perm.Perm.mpk_key ()

(* Fast path for clearing an entire node: one streaming scan frees the
   present leaves and child subtrees and drops the metadata array
   wholesale, instead of per-slot charged operations — how a real kernel
   tears down a fully-covered subtree. *)
let rec clear_whole_node c (node : node) =
  let t = c.asp in
  Pt.charge_node_scan_on c.fo t.pt;
  let n = entries_per_node t in
  (* A sparse page is walked by its occupancy bits, a dense one by index:
     past about a quarter of the slots occupied, finding each next bit
     costs more than reading every slot. Both visit the occupied slots in
     order, and an empty slot needs no work. *)
  let dense = node.Pt.present + meta_live node > n / 4 in
  let i = ref (if dense then 0 else next_occupied t node 0 ~stop:n) in
  while !i < n do
    let idx = !i in
    (match Pt.get_uncharged t.pt node idx with
    | Pte.Leaf { pfn; perm; _ } -> unmap_leaf c node idx (pfn, perm)
    | Pte.Table _ ->
      let child = Pt.child t.pt node idx in
      clear_whole_node c child;
      free_child c node idx child
    | Pte.Absent -> (
      match meta_get node idx with
      | Status.M_swapped { dev; block; _ } -> Blockdev.free_block dev ~block
      | Status.M_invalid | Status.M_alloc _ -> ()
      | Status.M_resident _ ->
        invariant ~ctx:"clear_whole_node" "resident metadata under an absent PTE"));
    i := if dense then idx + 1 else next_occupied t node (idx + 1) ~stop:n
  done;
  (* Drop the remaining marks wholesale. *)
  match node.Pt.meta with
  | None -> ()
  | Some m ->
    Mm_util.Chunked.reset m.slots;
    m.live <- 0;
    Mm_util.Bitset.clear m.bits

(* Recursive range clear: unmap leaves, drop marks, free empty PT pages.
   A partly covered page reads each slot of the range with a charged
   [get]; a run of empty slots (absent PTE, no metadata) does nothing but
   that read, so the run is billed as one exact [Pt.charge_gets]. *)
let rec clear_range c (node : node) ~lo ~hi =
  let t = c.asp in
  let base = Pt.node_base t.pt node in
  if lo <= base && base + Pt.node_coverage t.pt node <= hi then
    clear_whole_node c node
  else begin
    let stop = Pt.last_slot t.pt node ~hi + 1 in
    let i = ref (Pt.first_slot t.pt node ~lo) in
    while !i < stop do
      let idx = next_occupied t node !i ~stop in
      Pt.charge_gets_on c.fo t.pt node (idx - !i);
      if idx < stop then clear_slot c node ~lo ~hi idx;
      i := idx + 1
    done
  end

and clear_slot c (node : node) ~lo ~hi idx =
  let t = c.asp in
  let e_lo = Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node) in
  let e_hi = e_lo + Pt.entry_coverage t.pt node in
  let sub_lo = if lo > e_lo then lo else e_lo in
  let sub_hi = if hi < e_hi then hi else e_hi in
  let full = sub_lo = e_lo && sub_hi = e_hi in
  match Pt.get_on c.fo t.pt node idx with
  | Pte.Leaf { pfn; perm; _ } ->
    if full then unmap_leaf c node idx (pfn, perm)
    else
      let child = split_huge c node idx (Pt.get_on c.fo t.pt node idx) in
      clear_range c child ~lo:sub_lo ~hi:sub_hi
  | Pte.Table _ ->
    let child = Pt.child t.pt node idx in
    clear_range c child ~lo:sub_lo ~hi:sub_hi;
    if node_is_empty child then free_child c node idx child
  | Pte.Absent -> (
    match meta_get node idx with
    | Status.M_invalid -> ()
    | Status.M_alloc _ when full -> meta_set c.fiber t node idx Status.M_invalid
    | Status.M_alloc _ ->
      (* Partial clear of a large mark: push down, then recurse. *)
      let child = ensure_child c node idx in
      clear_range c child ~lo:sub_lo ~hi:sub_hi
    | Status.M_swapped { dev; block; _ } ->
      (* Swap slots are page-granular (level 1 only). *)
      Blockdev.free_block dev ~block;
      meta_set c.fiber t node idx Status.M_invalid
    | Status.M_resident _ ->
      invariant ~ctx:"clear_range" "resident metadata under an absent PTE")

let unmap c ~lo ~hi =
  in_range c ~lo ~hi;
  clear_range c c.covering ~lo ~hi

(* Set the status of a range (Fig 4 `mark`). Existing contents of the
   range are cleared first, as POSIX mmap over an existing mapping does.
   [base] is the vaddr to which the status's file offset corresponds, so
   that each slot stores the offset of its own position. *)
let rec mark_range c (node : node) ~lo ~hi ~base ~origin ~perm ~policy =
  let t = c.asp in
  Pt.iter_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
      let e_lo = Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node) in
      let e_hi = e_lo + Pt.entry_coverage t.pt node in
      let full = sub_lo = e_lo && sub_hi = e_hi in
      if full then begin
        (* Clear whatever was there, then store the mark at this level —
           one metadata entry can stand for the entire slot coverage. *)
        (match Pt.get_on c.fo t.pt node idx with
        | Pte.Leaf { pfn; perm; _ } -> unmap_leaf c node idx (pfn, perm)
        | Pte.Table _ ->
          let child = Pt.child t.pt node idx in
          clear_range c child ~lo:sub_lo ~hi:sub_hi;
          if node_is_empty child then free_child c node idx child
          else invariant ~ctx:"mark" "child not empty after full-range clear"
        | Pte.Absent -> (
          match meta_get node idx with
          | Status.M_swapped { dev; block; _ } ->
            Blockdev.free_block dev ~block
          | _ -> ()));
        meta_set c.fiber t node idx
          (Status.M_alloc
             { origin = origin_advance origin ~by:(e_lo - base); perm; policy })
      end
      else
        match Pt.get_on c.fo t.pt node idx with
        | Pte.Leaf _ as l ->
          let child = split_huge c node idx l in
          mark_range c child ~lo:sub_lo ~hi:sub_hi ~base ~origin ~perm ~policy
        | Pte.Table _ ->
          mark_range c (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi ~base
            ~origin ~perm ~policy
        | Pte.Absent ->
          let child = ensure_child c node idx in
          mark_range c child ~lo:sub_lo ~hi:sub_hi ~base ~origin ~perm ~policy)

let mark c ~lo ~hi status =
  in_range c ~lo ~hi;
  let origin = origin_of_status status in
  let perm =
    match Status.perm status with
    | Some p -> p
    | None -> invalid_arg "mark: status without permissions"
  in
  mark_range c c.covering ~lo ~hi ~base:lo ~origin ~perm
    ~policy:Numa.Default

(* Rewrite the NUMA policy of existing marks over a range — the single
   policy-update path, shared by mmap-with-policy and mbind. Only
   virtually-allocated slots carry a policy; resident pages are left
   where they are (no migration), as Linux's default mbind does. *)
let rec set_policy_range c (node : node) ~lo ~hi policy =
  let t = c.asp in
  Pt.iter_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
      let e_lo = Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node) in
      let e_hi = e_lo + Pt.entry_coverage t.pt node in
      let full = sub_lo = e_lo && sub_hi = e_hi in
      match Pt.get_on c.fo t.pt node idx with
      | Pte.Table _ ->
        set_policy_range c (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi
          policy
      | Pte.Leaf _ -> () (* already resident: no migration *)
      | Pte.Absent -> (
        match meta_get node idx with
        | Status.M_alloc { origin; perm; _ } when full ->
          meta_set c.fiber t node idx (Status.M_alloc { origin; perm; policy })
        | Status.M_alloc _ ->
          let child = ensure_child c node idx in
          set_policy_range c child ~lo:sub_lo ~hi:sub_hi policy
        | Status.M_invalid | Status.M_swapped _ -> ()
        | Status.M_resident _ ->
          invariant ~ctx:"set_policy" "resident metadata under an absent PTE"))

let update_policy c ~lo ~hi policy =
  in_range c ~lo ~hi;
  set_policy_range c c.covering ~lo ~hi policy

(* The policy recorded for an (unmapped) page, for the fault path. *)
let rec policy_below c ~vaddr (cur : node) =
  let t = c.asp in
  let idx = Pt.index t.pt ~level:cur.Pt.level ~vaddr in
  match Pt.get_uncharged t.pt cur idx with
  | Pte.Table _ -> policy_below c ~vaddr (Pt.child t.pt cur idx)
  | Pte.Leaf _ -> Numa.Default
  | Pte.Absent -> (
    match meta_get cur idx with
    | Status.M_alloc { policy; _ } -> policy
    | _ -> Numa.Default)

let policy_at c vaddr = policy_below c ~vaddr c.covering

(* Change permissions over a range, preserving mappings and marks. *)
let rec protect_range c (node : node) ~lo ~hi perm =
  let t = c.asp in
  Pt.iter_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
      let e_lo = Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node) in
      let e_hi = e_lo + Pt.entry_coverage t.pt node in
      let full = sub_lo = e_lo && sub_hi = e_hi in
      match Pt.get_on c.fo t.pt node idx with
      | Pte.Leaf ({ pfn = _; _ } as l) ->
        if full then begin
          rewrite_live_leaf c node idx
            (Pte.Leaf { l with perm = { perm with Perm.cow = l.perm.Perm.cow } });
          let geo = t.kernel.Kernel.isa.Isa.geo in
          note_tlb c ~vaddr:e_lo
            ~pages:(Geometry.pages_per_entry geo ~level:node.Pt.level);
          c.tlb_targets <- c.tlb_targets lor node.Pt.touched
        end
        else
          let child = split_huge c node idx (Pt.get_on c.fo t.pt node idx) in
          protect_range c child ~lo:sub_lo ~hi:sub_hi perm
      | Pte.Table _ ->
        protect_range c (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi perm
      | Pte.Absent -> (
        match meta_get node idx with
        | Status.M_invalid -> ()
        | Status.M_alloc { origin; policy; _ } when full ->
          meta_set c.fiber t node idx (Status.M_alloc { origin; perm; policy })
        | Status.M_alloc _ ->
          let child = ensure_child c node idx in
          protect_range c child ~lo:sub_lo ~hi:sub_hi perm
        | Status.M_swapped s ->
          meta_set c.fiber t node idx (Status.M_swapped { s with perm })
        | Status.M_resident _ ->
          invariant ~ctx:"protect" "resident metadata under an absent PTE"))

let protect c ~lo ~hi perm =
  in_range c ~lo ~hi;
  protect_range c c.covering ~lo ~hi perm

(* Record the calling CPU as a toucher of the PT page holding [vaddr]'s
   leaf, so later unmaps/protects shoot its TLB down. Used when a
   translation is (re)installed outside [map] — e.g. the spurious-fault
   path. *)
let rec toucher_below c ~vaddr (cur : node) =
  let t = c.asp in
  let idx = Pt.index t.pt ~level:cur.Pt.level ~vaddr in
  match Pt.get_on c.fo t.pt cur idx with
  | Pte.Table _ -> toucher_below c ~vaddr (Pt.child t.pt cur idx)
  | Pte.Leaf _ -> cur.Pt.touched <- cur.Pt.touched lor (1 lsl c.fiber.f_cpu)
  | Pte.Absent -> ()

let record_toucher c ~vaddr = toucher_below c ~vaddr c.covering

(* Record a swapped-out page in the metadata (the PTE slot must be absent:
   the caller unmapped the page after writing it to the device). *)
let set_swapped c ~vaddr ~dev ~block ~perm =
  let t = c.asp in
  in_range c ~lo:vaddr ~hi:(vaddr + page_size t);
  let node = node_for c vaddr ~to_level:1 in
  let idx = Pt.index t.pt ~level:1 ~vaddr in
  match Pt.get_on c.fo t.pt node idx with
  | Pte.Absent ->
    meta_set c.fiber t node idx (Status.M_swapped { dev; block; perm })
  | Pte.Leaf _ | Pte.Table _ ->
    invalid_arg "set_swapped: slot still holds a mapping"

(* Raw PTE rewrite of a single present page — used by COW break and by
   fork's write-protect pass, where [protect] semantics (which preserve the
   cow bit) do not fit. *)
let remap_pte c ~vaddr ~pfn ~perm =
  let t = c.asp in
  in_range c ~lo:vaddr ~hi:(vaddr + page_size t);
  let node = node_for c vaddr ~to_level:1 in
  let idx = Pt.index t.pt ~level:1 ~vaddr in
  match Pt.get_on c.fo t.pt node idx with
  | Pte.Leaf _ ->
    rewrite_live_leaf c node idx (Pte.leaf ~pfn ~perm ());
    note_tlb c ~vaddr ~pages:1;
    c.tlb_targets <- c.tlb_targets lor node.Pt.touched
  | Pte.Absent | Pte.Table _ -> invalid_arg "remap_pte: page not mapped"

(* -- Enumeration (fork, verification, accounting) --

   Walks the subtree under the cursor and reports every non-invalid slot as
   [(vaddr, bytes, status)], with marks reported at their stored level. *)
let iter_slots c ~lo ~hi f =
  in_range c ~lo ~hi;
  let t = c.asp in
  let rec go (node : node) ~lo ~hi =
    (* Enumeration streams over whole PT pages: charge per node, not per
       entry. *)
    Pt.charge_node_scan_on c.fo t.pt;
    let stop = Pt.last_slot t.pt node ~hi + 1 in
    let i = ref (next_occupied t node (Pt.first_slot t.pt node ~lo) ~stop) in
    while !i < stop do
      visit node ~lo ~hi !i;
      i := next_occupied t node (!i + 1) ~stop
    done
  and visit (node : node) ~lo ~hi idx =
    let e_lo =
      Pt.node_base t.pt node + (idx * Pt.entry_coverage t.pt node)
    in
    let e_hi = e_lo + Pt.entry_coverage t.pt node in
    let sub_lo = if lo > e_lo then lo else e_lo in
    let sub_hi = if hi < e_hi then hi else e_hi in
    match Pt.get_uncharged t.pt node idx with
    | Pte.Leaf { pfn; perm; _ } ->
      f e_lo (Pt.entry_coverage t.pt node)
        (Status.Mapped { pfn; perm })
    | Pte.Table _ -> go (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi
    | Pte.Absent -> (
      match meta_get node idx with
      | Status.M_invalid -> ()
      | Status.M_alloc { origin; perm; _ } ->
        f e_lo (Pt.entry_coverage t.pt node)
          (status_of_mark ~origin ~perm)
      | Status.M_swapped { dev; block; perm } ->
        f e_lo (Pt.entry_coverage t.pt node)
          (Status.Swapped { dev; block; perm })
      | Status.M_resident _ ->
        invariant ~ctx:"iter_slots" "resident metadata under an absent PTE")
  in
  go c.covering ~lo ~hi

(* Relocate every page of [old_lo, old_hi) to the equal-sized range at
   [new_lo] (mremap's move): present leaves are re-linked (frames keep
   their map counts; the reverse map follows), marks and swap slots are
   copied, and the old slots are cleared. The cursor must cover both
   ranges (callers lock their hull). Huge leaves are split first by the
   caller via [unmap]-free paths; this loop is page-granular, as Linux's
   move_page_tables is in the unaligned case. *)
let move_range c ~old_lo ~old_hi ~new_lo =
  let t = c.asp in
  let ps = page_size t in
  in_range c ~lo:old_lo ~hi:old_hi;
  in_range c ~lo:new_lo ~hi:(new_lo + (old_hi - old_lo));
  let npages = (old_hi - old_lo) / ps in
  for i = 0 to npages - 1 do
    let ov = old_lo + (i * ps) in
    let nv = new_lo + (i * ps) in
    let onode = node_for c ov ~to_level:1 in
    let oidx = Pt.index t.pt ~level:1 ~vaddr:ov in
    match Pt.get_on c.fo t.pt onode oidx with
    | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
      let origin = meta_get onode oidx in
      (* Clear the old slot without releasing the frame... *)
      Pt.set_on c.fo t.pt onode oidx Pte.Absent;
      meta_set c.fiber t onode oidx Status.M_invalid;
      note_tlb c ~vaddr:ov ~pages:1;
      c.tlb_targets <- c.tlb_targets lor onode.Pt.touched;
      (* ...and re-link it at the new address. *)
      let nnode = node_for c nv ~to_level:1 in
      let nidx = Pt.index t.pt ~level:1 ~vaddr:nv in
      Pt.set_on c.fo t.pt nnode nidx
        (Pte.Leaf { pfn; perm; accessed; dirty; global });
      (match origin with
      | Status.M_resident Status.O_anon ->
        Kernel.rmap_remove t.kernel ~pfn ~asp_id:t.id ~vaddr:ov;
        Kernel.rmap_add t.kernel ~pfn ~asp_id:t.id ~vaddr:nv;
        (* Rekey the ownership record when the top object holds it; a
           record in a shared chain parent stays put (the other side
           still maps the page at the old address). *)
        (match Vm_object.lookup t.obj ~vpn:(ov / ps) with
        | Some (holder, _) when holder == t.obj ->
          Vm_object.forget t.obj ~vpn:(ov / ps);
          Vm_object.install t.obj ~vpn:(nv / ps) ~pfn
        | _ -> ());
        meta_set c.fiber t nnode nidx origin
      | Status.M_resident (Status.O_file (f, _) as o)
      | Status.M_resident (Status.O_shm (f, _) as o) ->
        File.remove_mapper f ~asp_id:t.id ~map_vaddr:ov;
        File.add_mapper f
          { File.asp_id = t.id; map_vaddr = nv;
            file_offset = (match o with
              | Status.O_file (_, off) | Status.O_shm (_, off) -> off
              | Status.O_anon -> 0);
            len = ps };
        meta_set c.fiber t nnode nidx origin
      | m -> meta_set c.fiber t nnode nidx m)
    | Pte.Table _ -> invariant ~ctx:"move_range" "table entry at leaf level"
    | Pte.Absent -> (
      match meta_get onode oidx with
      | Status.M_invalid -> ()
      | (Status.M_alloc _ | Status.M_swapped _) as m ->
        meta_set c.fiber t onode oidx Status.M_invalid;
        let nnode = node_for c nv ~to_level:1 in
        let nidx = Pt.index t.pt ~level:1 ~vaddr:nv in
        meta_set c.fiber t nnode nidx m
      | Status.M_resident _ ->
        invariant ~ctx:"move_range" "resident metadata under an absent PTE")
  done

(* Bulk address-space clone for fork. On the ownership graph this is
   just "push a shadow object on both sides" ({!Vm_object.fork_push}):
   the parent's old top object — holding every resident anonymous page —
   becomes the shared chain parent of two fresh shadows, one per space,
   and post-fork pages land in the faulting side's shadow. The x86
   mechanism beneath is unchanged: mirror the parent's page-table
   subtree into the empty child, one streaming copy per PT page (PTE
   array + metadata array), write-protecting private mappings on both
   sides (COW) — how a real kernel forks, per-page-table memcpy plus
   per-present-leaf fixups, rather than replaying per-slot operations. *)
let clone_for_fork pc cc =
  let t = pc.asp and ct = cc.asp in
  (* The child was created with its own (empty) chain bottom; it is
     replaced by a shadow over the parent's chain. *)
  let sp, sc = Vm_object.fork_push t.obj in
  Vm_object.unref ct.obj;
  t.obj <- sp;
  ct.obj <- sc;
  let skip_parent_wp = mutant_fork_skip_parent_wp () in
  let phys = t.kernel.Kernel.phys in
  let geo = t.kernel.Kernel.isa.Isa.geo in
  let n = entries_per_node t in
  let rec clone (pn : node) (cn : node) =
    Pt.charge_node_scan_on pc.fo t.pt;
    Mm_sim.Engine.tick_on pc.fiber Mm_sim.Cost.page_copy;
    (* Copy the metadata array wholesale (swap slots get fresh blocks so
       each space owns its copy). *)
    (match pn.Pt.meta with
    | None -> ()
    | Some pm ->
      (* The child's array is fresh (all invalid): copy the parent's
         occupied slots. *)
      let cm = meta_of cc.fiber ct cn in
      Mm_sim.Engine.tick_on pc.fiber Mm_sim.Cost.meta_bulk_fill;
      let i = ref (Mm_util.Bitset.next pm.bits 0 ~stop:n) in
      while !i < n do
        let copied =
          match Mm_util.Chunked.get pm.slots !i with
          | Status.M_swapped { dev; block; perm } ->
            let contents = Blockdev.read_page dev ~block in
            let nb = Blockdev.alloc_block dev in
            Blockdev.write_page dev ~block:nb ~contents;
            Status.M_swapped { dev; block = nb; perm }
          | s -> s
        in
        meta_store cm !i copied;
        i := Mm_util.Bitset.next pm.bits (!i + 1) ~stop:n
      done);
    let i = ref (Pt.next_present t.pt pn 0 ~stop:n) in
    while !i < n do
      let idx = !i in
      (match Pt.get_uncharged t.pt pn idx with
      | Pte.Absent -> ()
      | Pte.Table _ ->
        let pchild = Pt.child t.pt pn idx in
        let cchild = Pt.alloc_node_on cc.fo ct.pt ~level:(cn.Pt.level - 1) in
        (match ct.cfg.Config.protocol with
        | Config.Adv ->
          Mm_sim.Mutex_s.lock_on cc.fiber (Pt.lock ct.pt cchild);
          cc.locked <- cchild :: cc.locked
        | Config.Rw -> ());
        Pt.set_child_on cc.fo ct.pt cn idx cchild;
        clone pchild cchild
      | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
        let vaddr = Pt.node_base t.pt pn + (idx * Pt.entry_coverage t.pt pn) in
        let frame = Mm_phys.Phys.frame phys pfn in
        let origin = meta_get pn idx in
        let shared =
          match origin with
          | Status.M_resident (Status.O_shm _) -> true
          | _ -> false
        in
        let p =
          if (not shared) && (perm.Perm.write || perm.Perm.cow) then begin
            (* Write-protect both sides and set the COW bit (Fig 8). *)
            let p = Perm.with_cow (Perm.with_write perm false) true in
            if not skip_parent_wp then begin
              Pt.set_on pc.fo t.pt pn idx
                (Pte.Leaf { pfn; perm = p; accessed; dirty; global });
              note_tlb pc ~vaddr
                ~pages:(Geometry.pages_per_entry geo ~level:pn.Pt.level);
              pc.tlb_targets <- pc.tlb_targets lor pn.Pt.touched
            end;
            p
          end
          else perm
        in
        Pt.set_on cc.fo ct.pt cn idx
          (Pte.Leaf { pfn; perm = p; accessed; dirty; global });
        Mm_phys.Phys.add_map phys frame;
        (match origin with
        | Status.M_resident Status.O_anon | Status.M_invalid ->
          Kernel.rmap_add t.kernel ~pfn ~asp_id:ct.id ~vaddr
        | Status.M_resident (Status.O_file (file, offset))
        | Status.M_resident (Status.O_shm (file, offset)) ->
          File.add_mapper file
            { File.asp_id = ct.id; map_vaddr = vaddr; file_offset = offset;
              len = Pt.entry_coverage t.pt pn }
        | Status.M_alloc _ | Status.M_swapped _ ->
          invariant ~ctx:"clone_for_fork" "inconsistent metadata under a leaf"));
      i := Pt.next_present t.pt pn (idx + 1) ~stop:n
    done
  in
  (* Both cursors must cover the whole space (covering = root). *)
  if pc.covering.Pt.parent <> None || cc.covering.Pt.parent <> None then
    invalid_arg "clone_for_fork: cursors must cover the full address space";
  clone pc.covering cc.covering

(* Promote a fully-populated level-1 PT page of uniform anonymous 4 KiB
   mappings into one 2 MiB huge leaf (khugepaged-style). The cursor's
   covering page must be at level >= 2 so the parent slot is locked (lock
   a range spanning two level-2 slots to arrange that). Returns false if
   the region does not qualify. *)
let promote_huge c ~vaddr =
  let t = c.asp in
  let geo = t.kernel.Kernel.isa.Isa.geo and phys = t.kernel.Kernel.phys in
  let huge = Geometry.coverage geo ~level:2 in
  if not (Mm_util.Align.is_aligned vaddr huge) then
    invalid_arg "promote_huge: vaddr not 2 MiB aligned";
  in_range c ~lo:vaddr ~hi:(vaddr + huge);
  if c.covering.Pt.level < 2 then
    invalid_arg "promote_huge: covering page must be above the leaf level";
  let parent = node_for c vaddr ~to_level:2 in
  let pidx = Pt.index t.pt ~level:2 ~vaddr in
  match Pt.get_on c.fo t.pt parent pidx with
  | Pte.Absent | Pte.Leaf _ -> false (* nothing to promote / already huge *)
  | Pte.Table _ ->
    let child = Pt.child t.pt parent pidx in
    let n = entries_per_node t in
    if child.Pt.present <> n then false
    else begin
      (* All slots must be singly-mapped anonymous pages with one shared
         permission and no pending COW. *)
      Pt.charge_node_scan_on c.fo t.pt;
      let uniform = ref None in
      let ok = ref true in
      for idx = 0 to n - 1 do
        match Pt.get_uncharged t.pt child idx with
        | Pte.Leaf { pfn; perm; _ } ->
          let frame = Mm_phys.Phys.frame phys pfn in
          if
            perm.Perm.cow
            || Mm_phys.Phys.map_count phys frame <> 1
            || Mm_phys.Phys.kind phys frame <> Mm_phys.Frame.Anon
            || meta_get child idx <> Status.M_resident Status.O_anon
          then ok := false
          else begin
            match !uniform with
            | None -> uniform := Some perm
            | Some p -> if not (Perm.equal p perm) then ok := false
          end
        | Pte.Absent | Pte.Table _ -> ok := false
      done;
      match (!ok, !uniform) with
      | false, _ | _, None -> false
      | true, Some perm ->
        (* Copy into a fresh 2 MiB block, retire the small pages, install
           the huge leaf. *)
        Mm_sim.Engine.tick_on c.fiber Mm_sim.Cost.page_alloc;
        let block =
          Mm_phys.Phys.alloc t.kernel.Kernel.phys ~kind:Mm_phys.Frame.Anon
            ~order:(Mm_util.Align.log2 n) ()
        in
        Mm_sim.Engine.tick_on c.fiber (n * Mm_sim.Cost.page_copy);
        for idx = 0 to n - 1 do
          match Pt.get_uncharged t.pt child idx with
          | Pte.Leaf { pfn; _ } ->
            Mm_phys.Phys.set_contents phys
              (Mm_phys.Phys.frame phys ((block :> int) + idx))
              (Mm_phys.Phys.contents phys (Mm_phys.Phys.frame phys pfn))
          | Pte.Absent | Pte.Table _ -> ()
        done;
        clear_whole_node c child;
        free_child c parent pidx child;
        Pt.set_on c.fo t.pt parent pidx
          (Pte.leaf ~accessed:true ~pfn:(block :> int) ~perm ());
        meta_set c.fiber t parent pidx (Status.M_resident Status.O_anon);
        Mm_phys.Phys.set_map_count phys block 1;
        Kernel.rmap_add t.kernel ~pfn:(block :> int) ~asp_id:t.id
          ~vaddr;
        note_tlb c ~vaddr ~pages:n;
        c.tlb_targets <- c.tlb_targets lor parent.Pt.touched;
        true
    end

(* Is the level-1 PT page holding [vaddr] fully populated? (The auto-THP
   trigger; a lock-free peek.) *)
let l1_full t vaddr =
  let node = Pt.walk_opt t.pt ~to_level:1 vaddr in
  node.Pt.level = 1 && node.Pt.present = entries_per_node t

let rec origin_below c ~vaddr (cur : node) =
  let t = c.asp in
  let idx = Pt.index t.pt ~level:cur.Pt.level ~vaddr in
  match Pt.get_on c.fo t.pt cur idx with
  | Pte.Table _ -> origin_below c ~vaddr (Pt.child t.pt cur idx)
  | Pte.Leaf _ | Pte.Absent -> meta_get cur idx

let origin_at c vaddr = origin_below c ~vaddr c.covering

(* -- Accounting -- *)

type mem_stats = {
  pt_pages : int;
  pt_bytes : int;
  meta_arrays : int;
  meta_bytes : int;
}

let mem_stats t =
  {
    pt_pages = Pt.pt_page_count t.pt;
    pt_bytes = Pt.pt_page_count t.pt * page_size t;
    meta_arrays = t.meta_arrays;
    meta_bytes = t.meta_bytes;
  }

(* Upper bound of the metadata overhead (Fig 22): every PT page with a
   fully populated metadata array. *)
let meta_bytes_upper_bound t =
  Pt.pt_page_count t.pt * entries_per_node t * Status.meta_entry_bytes

(* The page table's own invariant, then each metadata array's: its
   occupancy bits mark exactly the non-invalid slots, and [live] counts
   them. *)
let check_well_formed t =
  Pt.check_well_formed t.pt;
  let fail fmt = Printf.ksprintf (fun s -> raise (Pt.Ill_formed s)) fmt in
  Pt.iter_nodes t.pt (fun (node : node) ->
      match node.Pt.meta with
      | None -> ()
      | Some m ->
        let pfn = (node.Pt.frame :> int) in
        let live = ref 0 in
        for idx = 0 to Mm_util.Chunked.length m.slots - 1 do
          let valid = Mm_util.Chunked.get m.slots idx <> Status.M_invalid in
          if valid then incr live;
          if Mm_util.Bitset.mem m.bits idx <> valid then
            fail "stale metadata occupancy bit (node %#x idx %d)" pfn idx
        done;
        if !live <> m.live then
          fail "metadata live count %d <> actual %d (node %#x)" m.live !live
            pfn)
