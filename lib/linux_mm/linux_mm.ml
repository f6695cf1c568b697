(* The Linux-style two-level-abstraction baseline.

   Faithfully models the locking structure of the paper's Table 1 / Fig 2
   (Linux 6.13 with per-VMA locks):

   - mmap takes the writer side of the coarse mmap_lock ("mmap ... avoids
     the complexity and simply acquires the writer side", §2.2);
   - munmap write-locks mmap_lock, marks each overlapping VMA under its
     per-VMA lock, downgrades, then clears page tables under the
     fine-grained PT locks and performs a synchronous TLB shootdown;
   - page faults find the VMA lock-free (maple tree under RCU), take the
     per-VMA lock on the reader side, allocate upper-level PT pages under
     the coarse page_table_lock and the leaf PTE under the per-PT-page
     lock; each fault also charges the mm-wide accounting / LRU update,
     an atomic on a shared mm cache line — the residual serialization that
     keeps Linux's fault path from scaling like CortenMM's.

   The page-table substrate is the same radix engine CortenMM uses (with
   unit metadata) — the comparison isolates the software-level
   abstraction, exactly as the paper intends. *)

open Mm_hal
module Pt = Mm_pt.Pt
module Va_alloc = Cortenmm.Va_alloc

type fault_outcome = Handled | Sigsegv

type t = {
  phys : Mm_phys.Phys.t;
  isa : Isa.t;
  ncpus : int;
  pt : unit Pt.t;
  vmas : Vma.t;
  mmap_lock : Mm_sim.Rwlock_s.t;
  page_table_lock : Mm_sim.Mutex_s.t; (* protects upper-level PT pages *)
  stats_line : Mm_sim.Engine.Line.t; (* mm-wide RSS/LRU accounting *)
  tlb : Mm_tlb.Tlb.t;
  va : Va_alloc.t;
  cpu_mask : bool array;
}


let va_lo = 0x1000_0000

let create ?(isa = Isa.x86_64) ~ncpus () =
  let phys = Mm_phys.Phys.create () in
  let geo = isa.Isa.geo in
  {
    phys;
    isa;
    ncpus;
    pt = Pt.create phys isa;
    vmas = Vma.create phys;
    mmap_lock = Mm_sim.Rwlock_s.make ~bravo:false ~name:"linux.mmap_lock" ();
    page_table_lock = Mm_sim.Mutex_s.make ~name:"linux.page_table_lock" ();
    stats_line = Mm_sim.Engine.Line.make ();
    tlb = Mm_tlb.Tlb.create ~ncpus ~strategy:Mm_tlb.Tlb.Sync ();
    va =
      Va_alloc.create ~ncpus ~per_core:false ~va_lo
        ~va_hi:(Geometry.va_limit geo) ~page_size:(Geometry.page_size geo);
    cpu_mask = Array.make ncpus false;
  }

let page_size t = Geometry.page_size t.isa.Isa.geo
let phys t = t.phys
let tlb t = t.tlb
let vma_count t = Vma.count t.vmas
let pt_page_count t = Pt.pt_page_count t.pt

let note_cpu t =
  match Mm_sim.Engine.current () with
  | Some f -> t.cpu_mask.(f.f_cpu) <- true
  | None -> ()

(* -- mmap: writer side of mmap_lock -- *)

let mmap t ?addr ~len ~perm () =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Rwlock_s.write_lock t.mmap_lock;
  let lo =
    match addr with
    | Some a -> a
    | None -> Va_alloc.alloc t.va ~cpu ~len ()
  in
  let hi = lo + len in
  (* Fixed mappings replace whatever is there. *)
  if Vma.overlaps t.vmas ~lo ~hi then ignore (Vma.remove_range t.vmas ~lo ~hi);
  ignore (Vma.insert_or_merge t.vmas ~start:lo ~end_:hi ~perm);
  Mm_sim.Rwlock_s.write_unlock t.mmap_lock;
  lo

(* -- Page-table plumbing (used by munmap / fork / mprotect) -- *)

(* Clear all leaf PTEs in [lo, hi), taking the fine-grained lock of each
   leaf PT page. Returns the number of pages unmapped. *)
let clear_pt_range t ~lo ~hi =
  let ps = page_size t in
  let unmapped = ref [] in
  let rec walk (node : unit Pt.node) ~lo ~hi =
    Pt.charge_range_scan t.pt node ~lo ~hi;
    Pt.iter_present_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
        match Pt.get_uncharged t.pt node idx with
        | Pte.Leaf _ when node.Pt.level = 1 ->
          Mm_sim.Mutex_s.lock (Mm_phys.Frame.lock node.Pt.frame);
          (match Pt.get t.pt node idx with
          | Pte.Leaf { pfn; _ } ->
            Pt.set t.pt node idx Pte.Absent;
            let f = Mm_phys.Phys.frame t.phys pfn in
            f.Mm_phys.Frame.map_count <- f.Mm_phys.Frame.map_count - 1;
            if
              f.Mm_phys.Frame.map_count = 0
              && f.Mm_phys.Frame.kind = Mm_phys.Frame.Anon
            then begin
              Mm_sim.Engine.charge Mm_sim.Cost.page_free;
              Mm_phys.Phys.free t.phys f
            end;
            unmapped := (sub_lo / ps) :: !unmapped
          | Pte.Absent | Pte.Table _ -> ());
          Mm_sim.Mutex_s.unlock (Mm_phys.Frame.lock node.Pt.frame)
        | Pte.Leaf _ ->
          failwith "linux baseline: huge leaves not used"
        | Pte.Table _ -> walk (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi
        | Pte.Absent -> ())
  in
  walk (Pt.root t.pt) ~lo ~hi;
  !unmapped

(* free_pgtables: release PT pages that became empty, under the coarse
   page_table_lock (freeing requires the entry to have been cleared —
   Table 1 rule 7). *)
let free_empty_pt_pages t ~lo ~hi =
  Mm_sim.Mutex_s.lock t.page_table_lock;
  let rec prune (node : unit Pt.node) ~lo ~hi =
    if node.Pt.level > 1 then begin
      Pt.charge_range_scan t.pt node ~lo ~hi;
      Pt.iter_present_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
          match Pt.get_uncharged t.pt node idx with
          | Pte.Table _ ->
            let child = Pt.child t.pt node idx in
            prune child ~lo:sub_lo ~hi:sub_hi;
            if child.Pt.present = 0 then begin
              let detached = Pt.detach_child t.pt node idx in
              Pt.free_node t.pt detached
            end
          | Pte.Absent | Pte.Leaf _ -> ())
    end
  in
  prune (Pt.root t.pt) ~lo ~hi;
  Mm_sim.Mutex_s.unlock t.page_table_lock

(* -- munmap: the Fig 2 sequence -- *)

let munmap t ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let lo = addr and hi = addr + len in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Rwlock_s.write_lock t.mmap_lock;
  (* vma_start_write on each overlapping VMA (Fig 2 munmap L3-8). *)
  let victims = Vma.overlapping t.vmas ~lo ~hi in
  List.iter
    (fun (v : Vma.vma) ->
      Mm_sim.Rwlock_s.write_lock v.Vma.vma_lock;
      v.Vma.seq <- v.Vma.seq + 1;
      Mm_sim.Rwlock_s.write_unlock v.Vma.vma_lock)
    victims;
  (* Update the tree (splits partially covered VMAs). *)
  ignore (Vma.remove_range t.vmas ~lo ~hi);
  Mm_sim.Rwlock_s.downgrade t.mmap_lock;
  (* unmap_vmas + free_page_tables under the downgraded (read) lock. *)
  let vpns = clear_pt_range t ~lo ~hi in
  free_empty_pt_pages t ~lo ~hi;
  if vpns <> [] && Mm_sim.Engine.in_fiber () then
    Mm_tlb.Tlb.shootdown t.tlb ~targets:t.cpu_mask ~vpns;
  Mm_sim.Rwlock_s.read_unlock t.mmap_lock;
  Va_alloc.free t.va ~cpu ~addr ~len

(* -- mprotect -- *)

let mprotect t ~addr ~len ~perm =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let lo = addr and hi = addr + len in
  Mm_sim.Rwlock_s.write_lock t.mmap_lock;
  Vma.split_for_protect t.vmas ~lo ~hi ~perm;
  (* Rewrite present PTEs. *)
  let vpns = ref [] in
  let ps = page_size t in
  let rec walk (node : unit Pt.node) ~lo ~hi =
    Pt.charge_range_scan t.pt node ~lo ~hi;
    Pt.iter_present_range t.pt node ~lo ~hi (fun idx sub_lo sub_hi ->
        match Pt.get_uncharged t.pt node idx with
        | Pte.Leaf l when node.Pt.level = 1 ->
          Mm_sim.Mutex_s.lock (Mm_phys.Frame.lock node.Pt.frame);
          Pt.set t.pt node idx
            (Pte.Leaf { l with perm = { perm with Perm.cow = l.perm.Perm.cow } });
          Mm_sim.Mutex_s.unlock (Mm_phys.Frame.lock node.Pt.frame);
          vpns := (sub_lo / ps) :: !vpns
        | Pte.Leaf _ -> failwith "linux baseline: huge leaves not used"
        | Pte.Table _ -> walk (Pt.child t.pt node idx) ~lo:sub_lo ~hi:sub_hi
        | Pte.Absent -> ())
  in
  walk (Pt.root t.pt) ~lo ~hi;
  if !vpns <> [] && Mm_sim.Engine.in_fiber () then
    Mm_tlb.Tlb.shootdown t.tlb ~targets:t.cpu_mask ~vpns:!vpns;
  Mm_sim.Rwlock_s.write_unlock t.mmap_lock

(* -- Page fault: lock-free find + per-VMA read lock (Fig 2) -- *)

let page_fault t ~vaddr ~write =
  Mm_sim.Engine.charge Mm_sim.Cost.trap;
  note_cpu t;
  let ps = page_size t in
  let page = Mm_util.Align.down vaddr ps in
  (* Lock-free maple-tree lookup in an RCU read section. *)
  match Vma.find t.vmas vaddr with
  | None -> Sigsegv
  | Some vma ->
    Mm_sim.Rwlock_s.read_lock vma.Vma.vma_lock;
    (* Re-validate after locking. *)
    if
      not
        (vaddr >= vma.Vma.v_start && vaddr < vma.Vma.v_end
        && Perm.allows vma.Vma.perm ~write)
    then begin
      Mm_sim.Rwlock_s.read_unlock vma.Vma.vma_lock;
      Sigsegv
    end
    else begin
      (* Walk to the leaf, allocating upper PT pages under the coarse
         page_table_lock (Table 1 rule: "the lock of the target page
         table" — level 2/1 pages are fine-grained, higher are coarse). *)
      let rec down (node : unit Pt.node) =
        if node.Pt.level = 1 then node
        else
          let idx = Pt.index t.pt ~level:node.Pt.level ~vaddr in
          match Pt.get t.pt node idx with
          | Pte.Table _ -> down (Pt.child t.pt node idx)
          | Pte.Absent | Pte.Leaf _ ->
            Mm_sim.Mutex_s.lock t.page_table_lock;
            let c =
              match Pt.get t.pt node idx with
              | Pte.Table _ ->
                (* raced: someone else allocated it *)
                Pt.child t.pt node idx
              | Pte.Absent | Pte.Leaf _ -> Pt.ensure_child t.pt node idx
            in
            Mm_sim.Mutex_s.unlock t.page_table_lock;
            down c
      in
      let leaf = down (Pt.root t.pt) in
      let idx = Pt.index t.pt ~level:1 ~vaddr in
      Mm_sim.Mutex_s.lock (Mm_phys.Frame.lock leaf.Pt.frame);
      let outcome =
        match Pt.get t.pt leaf idx with
        | Pte.Leaf { pfn; perm; _ } ->
          (* Raced with another fault, or a COW break. *)
          if write && perm.Perm.cow then begin
            let frame = Mm_phys.Phys.frame t.phys pfn in
            if
              frame.Mm_phys.Frame.map_count = 1
              && frame.Mm_phys.Frame.kind = Mm_phys.Frame.Anon
            then begin
              let p = Perm.with_cow (Perm.with_write perm true) false in
              Pt.set t.pt leaf idx (Pte.leaf ~pfn ~perm:p ());
              Mm_tlb.Tlb.install t.tlb ~cpu:(Mm_sim.Engine.cpu_id ())
                ~vpn:(page / ps) ~pfn ~writable:true ();
              Handled
            end
            else begin
              Mm_sim.Engine.charge
                (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_copy);
              let copy = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
              copy.Mm_phys.Frame.contents <- frame.Mm_phys.Frame.contents;
              copy.Mm_phys.Frame.map_count <- 1;
              frame.Mm_phys.Frame.map_count <-
                frame.Mm_phys.Frame.map_count - 1;
              let p = Perm.with_cow (Perm.with_write perm true) false in
              Pt.set t.pt leaf idx
                (Pte.leaf ~pfn:copy.Mm_phys.Frame.pfn ~perm:p ());
              (match Mm_sim.Engine.current () with
              | Some f ->
                Mm_tlb.Tlb.install t.tlb ~cpu:f.f_cpu ~vpn:(page / ps)
                  ~pfn:copy.Mm_phys.Frame.pfn ~writable:true ()
              | None -> ());
              Handled
            end
          end
          else Handled
        | Pte.Table _ -> failwith "page_fault: table entry at leaf level"
        | Pte.Absent ->
          Mm_sim.Engine.charge (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_zero);
          let frame = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
          frame.Mm_phys.Frame.map_count <- 1;
          let p = vma.Vma.perm in
          Pt.set t.pt leaf idx (Pte.leaf ~pfn:frame.Mm_phys.Frame.pfn ~perm:p ());
          (match Mm_sim.Engine.current () with
          | Some f ->
            Mm_tlb.Tlb.install t.tlb ~cpu:f.f_cpu ~vpn:(page / ps)
              ~pfn:frame.Mm_phys.Frame.pfn
              ~writable:(p.Perm.write && not p.Perm.cow) ()
          | None -> ());
          Handled
      in
      (* mm-wide RSS / LRU / memcg accounting: local bookkeeping plus an
         atomic on a shared mm cache line. *)
      (match Mm_sim.Engine.current () with
      | Some f ->
        Mm_sim.Engine.tick_on f Mm_sim.Cost.linux_fault_accounting;
        Mm_sim.Engine.Line.rmw_on f t.stats_line
      | None -> ());
      Mm_sim.Mutex_s.unlock (Mm_phys.Frame.lock leaf.Pt.frame);
      Mm_sim.Rwlock_s.read_unlock vma.Vma.vma_lock;
      outcome
    end

exception Fault of int

let touch t ~vaddr ~write =
  note_cpu t;
  let ps = page_size t in
  let vpn = vaddr / ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  match Mm_tlb.Tlb.lookup t.tlb ~cpu ~vpn ~write with
  | Some _ -> ()
  | None ->
    let rec walk (node : unit Pt.node) =
      let idx = Pt.index t.pt ~level:node.Pt.level ~vaddr in
      match Pt.get t.pt node idx with
      | Pte.Leaf { pfn; perm; _ }
        when Perm.allows perm ~write && not (write && perm.Perm.cow) ->
        Mm_tlb.Tlb.install t.tlb ~cpu ~vpn ~pfn
          ~writable:(perm.Perm.write && not perm.Perm.cow) ();
        Some ()
      | Pte.Leaf _ -> None
      | Pte.Table _ -> walk (Pt.child t.pt node idx)
      | Pte.Absent -> None
    in
    (match walk (Pt.root t.pt) with
    | Some () -> ()
    | None -> (
      match page_fault t ~vaddr ~write with
      | Handled -> ()
      | Sigsegv -> raise (Fault vaddr)))

let touch_range t ~addr ~len ~write =
  let ps = page_size t in
  let rec go v =
    if v < addr + len then begin
      touch t ~vaddr:v ~write;
      go (v + ps)
    end
  in
  go addr

(* -- fork: iterate the VMA list (Linux's fast path for enumeration) -- *)

let fork t =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  Mm_sim.Rwlock_s.write_lock t.mmap_lock;
  let child =
    {
      phys = t.phys;
      isa = t.isa;
      ncpus = t.ncpus;
      pt = Pt.create t.phys t.isa;
      vmas = Vma.create t.phys;
      mmap_lock = Mm_sim.Rwlock_s.make ~bravo:false ~name:"linux.mmap_lock" ();
      page_table_lock = Mm_sim.Mutex_s.make ~name:"linux.page_table_lock" ();
      stats_line = Mm_sim.Engine.Line.make ();
      tlb = Mm_tlb.Tlb.create ~ncpus:t.ncpus ~strategy:Mm_tlb.Tlb.Sync ();
      va = Va_alloc.clone t.va;
      cpu_mask = Array.make t.ncpus false;
    }
  in
  (* Copy the VMA list: Linux enumerates the address space through the
     software-level abstraction — fast (one struct per region). *)
  Vma.iter t.vmas (fun v ->
      ignore
        (Vma.insert child.vmas ~start:v.Vma.v_start ~end_:v.Vma.v_end
           ~perm:v.Vma.perm));
  (* copy_page_range: stream-copy the populated page tables, COWing
     writable private leaves on both sides. *)
  let vpns = ref [] in
  let ps = page_size t in
  let rec clone_pt (pn : unit Pt.node) (cn : unit Pt.node) =
    Pt.charge_node_scan t.pt;
    Mm_sim.Engine.charge Mm_sim.Cost.page_copy;
    Pt.iter_present t.pt pn (fun idx ->
      match Pt.get_uncharged t.pt pn idx with
      | Pte.Absent -> ()
      | Pte.Table _ ->
        let pchild = Pt.child t.pt pn idx in
        let cchild = Pt.alloc_node child.pt ~level:(cn.Pt.level - 1) in
        Pt.set_child child.pt cn idx cchild;
        clone_pt pchild cchild
      | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
        let p =
          if perm.Perm.write || perm.Perm.cow then begin
            let p = Perm.with_cow (Perm.with_write perm false) true in
            Pt.set t.pt pn idx (Pte.Leaf { pfn; perm = p; accessed; dirty; global });
            let vaddr =
              Pt.node_base t.pt pn + (idx * Pt.entry_coverage t.pt pn)
            in
            vpns := (vaddr / ps) :: !vpns;
            p
          end
          else perm
        in
        Pt.set child.pt cn idx (Pte.Leaf { pfn; perm = p; accessed; dirty; global });
        let f = Mm_phys.Phys.frame t.phys pfn in
        f.Mm_phys.Frame.map_count <- f.Mm_phys.Frame.map_count + 1)
  in
  clone_pt (Pt.root t.pt) (Pt.root child.pt);
  (if !vpns <> [] && Mm_sim.Engine.in_fiber () then
     let vpns =
       if List.length !vpns > 64 then List.filteri (fun i _ -> i < 64) !vpns
       else !vpns
     in
     Mm_tlb.Tlb.shootdown t.tlb ~targets:t.cpu_mask ~vpns);
  Mm_sim.Rwlock_s.write_unlock t.mmap_lock;
  child

let destroy t =
  let geo = t.isa.Isa.geo in
  let lo = va_lo and hi = Geometry.va_limit geo in
  Mm_sim.Rwlock_s.write_lock t.mmap_lock;
  ignore (Vma.remove_range t.vmas ~lo ~hi);
  Mm_sim.Rwlock_s.downgrade t.mmap_lock;
  ignore (clear_pt_range t ~lo ~hi);
  free_empty_pt_pages t ~lo ~hi;
  Mm_sim.Rwlock_s.read_unlock t.mmap_lock

(* Simulated data access, mirroring Cortenmm.Mm for the semantics tests. *)
let with_pfn t ~vaddr f =
  let node = Pt.walk_opt t.pt ~to_level:1 vaddr in
  if node.Pt.level <> 1 then failwith "with_pfn: page not mapped"
  else
    match Pt.get t.pt node (Pt.index t.pt ~level:1 ~vaddr) with
    | Pte.Leaf { pfn; _ } -> f (Mm_phys.Phys.frame t.phys pfn)
    | Pte.Absent | Pte.Table _ -> failwith "with_pfn: page not mapped"

let write_value t ~vaddr ~value =
  touch t ~vaddr ~write:true;
  with_pfn t ~vaddr (fun f -> f.Mm_phys.Frame.contents <- value)

let read_value t ~vaddr =
  touch t ~vaddr ~write:false;
  with_pfn t ~vaddr (fun f -> f.Mm_phys.Frame.contents)

(* Normalized observation of one page for the differential oracle: VMA
   lookup for mapped-ness and the would-be protection, raw (uncharged)
   PT descent for residency. COW counts as writable — the store succeeds
   after the break. *)
let page_state t ~vaddr =
  match Vma.find t.vmas vaddr with
  | None -> `Unmapped
  | Some vma ->
    let rec down (node : unit Pt.node) =
      let idx = Pt.index t.pt ~level:node.Pt.level ~vaddr in
      if node.Pt.level = 1 then
        match Pt.get_uncharged t.pt node idx with
        | Pte.Leaf { perm; _ } ->
          `Resident (perm.Perm.write || perm.Perm.cow)
        | Pte.Absent | Pte.Table _ -> `Lazy vma.Vma.perm.Perm.write
      else
        match Pt.get t.pt node idx with
        | Pte.Table _ -> down (Pt.child t.pt node idx)
        | Pte.Absent | Pte.Leaf _ -> `Lazy vma.Vma.perm.Perm.write
    in
    down (Pt.root t.pt)

let check_well_formed t = Pt.check_well_formed t.pt
