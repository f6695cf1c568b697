(* The memory-management operations (paper Fig 8): mmap, munmap, mprotect,
   msync, the page-fault handler, fork with copy-on-write, swapping, and
   memory accesses through the TLB. Every MMU manipulation goes through the
   transactional interface — each operation is one locked transaction. *)

open Mm_hal
module Pt = Mm_pt.Pt

type backing =
  | Anon
  | File_private of File.t * int (* file, offset *)
  | Shared of File.t * int (* shared file / shm object *)

exception Enomem

type fault_outcome = Handled | Sigsegv

let status_of_backing backing perm =
  match backing with
  | Anon -> Status.Private_anon perm
  | File_private (file, offset) -> Status.Private_file { file; offset; perm }
  | Shared (file, offset) -> Status.Shared_anon { shm = file; offset; perm }

(* -- mmap (Fig 8 do_syscall_mmap) -- *)

let mmap asp ?addr ?(backing = Anon) ?(policy = Numa.Default) ~len ~perm () =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = Addr_space.page_size asp in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  let lo =
    match addr with
    | Some a -> a
    | None -> Va_alloc.alloc (Addr_space.va_allocator asp) ~cpu ~len ()
  in
  let hi = lo + len in
  Addr_space.with_lock asp ~lo ~hi (fun c ->
      (* "if rcursor.query(range) { /* necessary checks */ }" — only an
         explicitly requested address can collide with an existing mapping
         (POSIX fixed mappings replace it; mark below clears). A fresh
         VA-allocator address needs no check. *)
      (match addr with
      | Some _ -> ignore (Addr_space.query c lo)
      | None -> ());
      Addr_space.mark c ~lo ~hi (status_of_backing backing perm);
      (* A non-default placement policy goes through the single policy
         update path (same one mbind uses); the common default-policy
         mmap pays nothing extra. *)
      if policy <> Numa.Default then
        Addr_space.update_policy c ~lo ~hi policy);
  lo

(* -- munmap -- *)

let munmap asp ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = Addr_space.page_size asp in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
      Addr_space.unmap c ~lo:addr ~hi:(addr + len));
  Va_alloc.free (Addr_space.va_allocator asp) ~cpu ~addr ~len

(* -- mprotect -- *)

let mprotect asp ~addr ~len ~perm =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
      Addr_space.protect c ~lo:addr ~hi:(addr + len) perm)

(* -- mremap -- *)

exception Mremap_failed of string

(* Move/resize a mapping. Shrinking unmaps the tail; growing allocates a
   new range and relocates the pages (always MREMAP_MAYMOVE semantics).
   The move is one transaction over the hull of both ranges — the
   covering PT page is their common ancestor, which is also why mremap of
   distant ranges is expensive (it serializes like a fork against
   concurrent activity). Huge-page leaves in the old range are not
   supported (split or unmap them first). *)
let mremap asp ~addr ~old_len ~new_len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = Addr_space.page_size asp in
  let old_len = Mm_util.Align.up old_len ps in
  let new_len = Mm_util.Align.up new_len ps in
  if old_len = 0 || new_len = 0 then raise (Mremap_failed "empty range");
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  if new_len = old_len then addr
  else if new_len < old_len then begin
    (* Shrink in place. *)
    Addr_space.with_lock asp ~lo:(addr + new_len) ~hi:(addr + old_len)
      (fun c -> Addr_space.unmap c ~lo:(addr + new_len) ~hi:(addr + old_len));
    addr
  end
  else begin
    (* Grow: relocate to a fresh range (MAYMOVE). *)
    let new_addr =
      Va_alloc.alloc (Addr_space.va_allocator asp) ~cpu ~len:new_len ()
    in
    let lo = min addr new_addr in
    let hi = max (addr + old_len) (new_addr + new_len) in
    Addr_space.with_lock asp ~lo ~hi (fun c ->
        (* The grown tail starts unpopulated; inherit the head's
           protection for its on-demand mark. *)
        let tail_perm =
          match Addr_space.query c addr with
          | Status.Invalid -> None
          | s -> Status.perm s
        in
        Addr_space.move_range c ~old_lo:addr ~old_hi:(addr + old_len)
          ~new_lo:new_addr;
        match tail_perm with
        | Some perm ->
          let p =
            if perm.Perm.cow then
              Perm.with_write (Perm.with_cow perm false) true
            else perm
          in
          Addr_space.mark c ~lo:(new_addr + old_len) ~hi:(new_addr + new_len)
            (Status.Private_anon p)
        | None -> ());
    Va_alloc.free (Addr_space.va_allocator asp) ~cpu ~addr ~len:old_len;
    new_addr
  end

(* -- madvise(MADV_DONTNEED) -- *)

(* Drop the resident anonymous pages of a range without unmapping it: the
   frames are released, the virtual allocation stays, and refaults read
   zero-filled pages. *)
let madvise_dontneed asp ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = Addr_space.page_size asp in
  let len = Mm_util.Align.up len ps in
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
      let npages = len / ps in
      for i = 0 to npages - 1 do
        let v = addr + (i * ps) in
        match Addr_space.query c v with
        | Status.Mapped { perm; _ } -> (
          match Addr_space.origin_at c v with
          | Status.M_resident Status.O_anon ->
            (* A COW-protected page's original protection was writable;
               restore it for the refault. *)
            let p =
              if perm.Perm.cow then
                Perm.with_write (Perm.with_cow perm false) true
              else perm
            in
            Addr_space.unmap c ~lo:v ~hi:(v + ps);
            Addr_space.mark c ~lo:v ~hi:(v + ps) (Status.Private_anon p)
          | _ -> () (* file-backed and shared pages are left alone *))
        | _ -> ()
      done)

(* -- The page-fault handler (Fig 8 page_fault_handler) -- *)

let page_fault asp ~vaddr ~write =
  Mm_sim.Engine.charge Mm_sim.Cost.trap;
  let tracing = Mm_obs.Trace.on () && Mm_sim.Engine.in_fiber () in
  let t0 = if tracing then Mm_sim.Engine.now () else 0 in
  let kernel = Addr_space.kernel asp in
  let phys = kernel.Kernel.phys in
  let ps = Addr_space.page_size asp in
  let page = Mm_util.Align.down vaddr ps in
  let outcome =
    Addr_space.with_lock asp ~lo:page ~hi:(page + ps) (fun c ->
      match Addr_space.query c page with
      | Status.Invalid -> Sigsegv
      | Status.Private_anon perm ->
        if not (Perm.allows perm ~write) then Sigsegv
        else begin
          (* Fault on a virtually allocated anonymous page: map a zeroed
             frame, allocated per the NUMA policy stored in the metadata
             (local node by default). *)
          Mm_sim.Engine.charge (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_zero);
          let cpu = Mm_sim.Engine.cpu_or_zero () in
          let local_node = Kernel.node_of_cpu kernel ~cpu in
          let node =
            Numa.choose
              ~policy:(Addr_space.policy_at c page)
              ~local_node ~vpn:(page / ps)
              ~nnodes:(Kernel.numa_nodes kernel)
          in
          if node <> local_node then
            Mm_sim.Engine.charge Mm_sim.Cost.numa_remote_alloc;
          let frame =
            Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Anon ~node ()
          in
          Addr_space.map c ~vaddr:page ~frame ~perm ~origin:Status.O_anon ();
          Handled
        end
      | Status.Private_file { file; offset; perm } ->
        if not (Perm.allows perm ~write) then Sigsegv
        else if write then begin
          (* Private write: immediately break from the page cache. *)
          let fpager = File.pager file phys in
          let cache = fpager.Pager.get_page ~page_index:(offset / ps) in
          Mm_sim.Engine.charge (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_copy);
          let frame = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Anon () in
          frame.Mm_phys.Frame.contents <- cache.Mm_phys.Frame.contents;
          Addr_space.map c ~vaddr:page ~frame ~perm ~origin:Status.O_anon ();
          Handled
        end
        else begin
          (* Private read: share the page-cache frame, copy-on-write. *)
          let fpager = File.pager file phys in
          let cache = fpager.Pager.get_page ~page_index:(offset / ps) in
          let map_perm =
            Perm.with_cow (Perm.with_write perm false) perm.Perm.write
          in
          Addr_space.map c ~vaddr:page ~frame:cache ~perm:map_perm
            ~origin:(Status.O_file (file, offset))
            ();
          Handled
        end
      | Status.Shared_anon { shm; offset; perm } ->
        if not (Perm.allows perm ~write) then Sigsegv
        else begin
          let fpager = File.pager shm phys in
          let frame = fpager.Pager.get_page ~page_index:(offset / ps) in
          if write then File.mark_dirty shm ~page_index:(offset / ps);
          Addr_space.map c ~vaddr:page ~frame ~perm
            ~origin:(Status.O_shm (shm, offset))
            ();
          Handled
        end
      | Status.Swapped { dev; block; perm } ->
        if not (Perm.allows perm ~write) then Sigsegv
        else begin
          (* Swap the page back in through the anonymous pager (the swap
             block is the pager's page index; the read frees it). *)
          let apager = Vm_object.pager ~dev ~phys in
          let frame = apager.Pager.get_page ~page_index:block in
          Addr_space.map c ~vaddr:page ~frame ~perm ~origin:Status.O_anon ();
          Handled
        end
      | Status.Mapped { pfn; perm } ->
        if write && perm.Perm.cow then begin
          (* Fig 8 L25-35: copy-on-write break, resolved against the
             backing chain: the page's owning object is found by chain
             walk; the copy (or the reclaimed original) always ends up
             in the faulting space's top shadow. *)
          let frame = Mm_phys.Phys.frame phys pfn in
          if
            frame.Mm_phys.Frame.map_count = 1
            && frame.Mm_phys.Frame.kind = Mm_phys.Frame.Anon
            (* Page-cache frames are never reused in place: the cache
               itself keeps a reference. *)
          then begin
            (* The other side has gone: just restore write access, and
               promote the ownership record out of the shared chain
               parent — the page is exclusively ours again. *)
            let p = Perm.with_cow (Perm.with_write perm true) false in
            Addr_space.remap_pte c ~vaddr:page ~pfn ~perm:p;
            Vm_object.promote (Addr_space.vm_object asp) ~vpn:(page / ps);
            Handled
          end
          else begin
            Mm_sim.Engine.charge
              (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_copy);
            let copy = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Anon () in
            copy.Mm_phys.Frame.contents <- frame.Mm_phys.Frame.contents;
            let p = Perm.with_cow (Perm.with_write perm true) false in
            (* map over the existing PTE releases the shared frame; the
               original's record stays with the chain parent (the other
               side still reaches it), the copy joins our top shadow
               inside [Addr_space.map]. *)
            Addr_space.map c ~vaddr:page ~frame:copy ~perm:p
              ~origin:Status.O_anon ();
            Handled
          end
        end
        else if write && not perm.Perm.write then Sigsegv
        else if not perm.Perm.read then Sigsegv
        else begin
          (* Spurious fault (racing fault already mapped the page, or a
             stale TLB): reinstall the translation. *)
          Addr_space.record_toucher c ~vaddr:page;
          (match Mm_sim.Engine.current () with
          | Some f ->
            Mm_tlb.Tlb.install (Addr_space.tlb asp) ~cpu:f.f_cpu
              ~vpn:(page / ps) ~pfn
              ~writable:(perm.Perm.write && not perm.Perm.cow)
              ~key:perm.Perm.mpk_key ()
          | None -> ());
          Handled
        end)
  in
  if tracing then begin
    let span = Mm_sim.Engine.now () - t0 in
    Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "fault.cycles") span;
    Mm_sim.Engine.obs (Mm_obs.Event.Page_fault { vaddr = page; write; span })
  end;
  outcome

(* -- Transparent huge pages (khugepaged-style promotion) -- *)

let promote_huge asp ~vaddr =
  let geo = (Addr_space.kernel asp).Kernel.isa.Isa.geo in
  let huge = Geometry.coverage geo ~level:2 in
  let base = Mm_util.Align.down vaddr huge in
  let ps = Addr_space.page_size asp in
  (* Lock a range spanning into the next slot so the covering PT page is
     the level-2 one (the parent slot must be writable). *)
  Addr_space.with_lock asp ~lo:base ~hi:(base + huge + ps) (fun c ->
      Addr_space.promote_huge c ~vaddr:base)

(* -- Memory access: the MMU walk + TLB front end -- *)

exception Fault of int (* vaddr that faulted with Sigsegv *)

(* One user-level access. TLB hit: free. Miss: hardware page walk; if the
   translation is present and permits the access, install it; otherwise
   take a page fault and retry once. The typed variant returns the fault
   as a value so backends expose it at the interface boundary. *)
let touch_r asp ~vaddr ~write =
  let t = Addr_space.tlb asp in
  let ps = Addr_space.page_size asp in
  let vpn = vaddr / ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  (* Hardware checks the PKRU register against the translation's
     protection key on every access, TLB hit or miss. *)
  let pkru_denies key =
    key <> 0 && Kernel.pkru_denies (Addr_space.kernel asp) ~cpu ~key ~write
  in
  match Mm_tlb.Tlb.lookup t ~cpu ~vpn ~write with
  | Some (_, key) ->
    if pkru_denies key then Error (Errno.SIGSEGV vaddr) else Ok ()
  | None ->
    (* Hardware walk: lock-free reads down the page table. *)
    let pt = Addr_space.pt asp in
    let rec walk (node : 'm Pt.node) =
      let idx = Pt.index pt ~level:node.Pt.level ~vaddr in
      match Pt.get pt node idx with
      | Pte.Leaf { pfn; perm; _ } when Perm.allows perm ~write ->
        let off = (vaddr mod Pt.entry_coverage pt node) / ps in
        (* COW pages are mapped read-only; a write access must fault. *)
        if write && perm.Perm.cow then `Miss
        else if pkru_denies perm.Perm.mpk_key then `Pkru
        else begin
          node.Pt.touched <- node.Pt.touched lor (1 lsl cpu);
          Pt.set_accessed pt node idx;
          Mm_tlb.Tlb.install t ~cpu ~vpn ~pfn:(pfn + off)
            ~writable:(perm.Perm.write && not perm.Perm.cow)
            ~key:perm.Perm.mpk_key ();
          `Hit
        end
      | Pte.Leaf _ -> `Miss
      | Pte.Table _ -> walk (Pt.child pt node idx)
      | Pte.Absent -> `Miss
    in
    (match walk (Pt.root pt) with
    | `Hit -> Ok ()
    | `Pkru -> Error (Errno.SIGSEGV vaddr)
    | `Miss -> (
      match page_fault asp ~vaddr ~write with
      | Handled ->
        (* Auto-THP: when the fault filled its leaf PT page, promote the
           2 MiB region in a fresh transaction. *)
        if
          (Addr_space.config asp).Config.thp
          && Addr_space.l1_full asp vaddr
        then ignore (promote_huge asp ~vaddr);
        Ok ()
      | Sigsegv -> Error (Errno.SIGSEGV vaddr)))

let touch asp ~vaddr ~write =
  match touch_r asp ~vaddr ~write with
  | Ok () -> ()
  | Error (Errno.SIGSEGV v) -> raise (Fault v)
  | Error _ -> raise (Fault vaddr)

let touch_range_r asp ~addr ~len ~write =
  let ps = Addr_space.page_size asp in
  let rec go v =
    if v >= addr + len then Ok ()
    else
      match touch_r asp ~vaddr:v ~write with
      | Ok () -> go (v + ps)
      | Error _ as e -> e
  in
  go addr

let touch_range asp ~addr ~len ~write =
  match touch_range_r asp ~addr ~len ~write with
  | Ok () -> ()
  | Error (Errno.SIGSEGV v) -> raise (Fault v)
  | Error _ -> raise (Fault addr)

(* -- fork (copy-on-write address-space duplication) -- *)

let user_range asp =
  let geo = (Addr_space.kernel asp).Kernel.isa.Isa.geo in
  (Addr_space.va_lo, Geometry.va_limit geo)

let fork parent =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let kernel = Addr_space.kernel parent in
  let child =
    Addr_space.create
      ~va:(Va_alloc.clone (Addr_space.va_allocator parent))
      kernel (Addr_space.config parent)
  in
  let lo, hi = user_range parent in
  (* CortenMM enumerates the address space by walking the page table —
     the paper's worst case (§6.2, LMbench fork). Both transactions cover
     the full range (covering = the roots); the clone streams one copy per
     PT page, write-protecting private mappings on both sides. *)
  Addr_space.with_lock parent ~lo ~hi (fun pc ->
      Addr_space.with_lock child ~lo ~hi (fun cc ->
          Addr_space.clone_for_fork pc cc));
  child

(* -- exec / process teardown -- *)

let destroy asp =
  let lo, hi = user_range asp in
  Addr_space.with_lock asp ~lo ~hi (fun c -> Addr_space.unmap c ~lo ~hi);
  (* Drop the space's reference on its chain top. A parent object left
     with a single surviving shadow collapses into it, so a fork tree
     torn down child-by-child ends with the root space back on a
     depth-one chain (refcount 1). *)
  Vm_object.unref (Addr_space.vm_object asp);
  (* Leave the space on a fresh depth-one chain: exec destroys the old
     image and repopulates the same space (LMbench fork+exec). *)
  Addr_space.reset_vm_object asp

(* khugepaged: scan the address space and promote every qualifying
   region; returns the number promoted. *)

let khugepaged asp =
  let geo = (Addr_space.kernel asp).Kernel.isa.Isa.geo in
  let huge = Geometry.coverage geo ~level:2 in
  let candidates = ref [] in
  let lo, hi = user_range asp in
  Addr_space.with_lock asp ~lo ~hi (fun c ->
      Addr_space.iter_slots c ~lo ~hi (fun vaddr bytes status ->
          match status with
          | Status.Mapped _ when bytes < huge ->
            let base = Mm_util.Align.down vaddr huge in
            (match !candidates with
            | b :: _ when b = base -> ()
            | _ -> candidates := base :: !candidates)
          | _ -> ()));
  List.fold_left
    (fun n base -> if promote_huge asp ~vaddr:base then n + 1 else n)
    0 !candidates

(* -- msync: write back dirty shared pages -- *)

let msync_r _asp ~file =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  Ok (File.writeback file)

(* -- Swapping -- *)

(* Swap one resident anonymous page out to [dev] through the anonymous
   pager. Returns false if the page is not a singly-mapped resident
   anonymous page (shared and COW pages are skipped, as simple swap
   daemons do) or is wired by mlock. The unmap runs inside the
   transaction and its shootdown is synchronous under every strategy, so
   no CPU keeps a translation to the frame once the transaction commits —
   the no-reuse-before-flush invariant covers reclaim. *)
let swap_out asp ~vaddr ~dev =
  let ps = Addr_space.page_size asp in
  let page = Mm_util.Align.down vaddr ps in
  let kernel = Addr_space.kernel asp in
  Addr_space.with_lock asp ~lo:page ~hi:(page + ps) (fun c ->
      match Addr_space.query c page with
      | Status.Mapped { pfn; perm } -> (
        match Addr_space.origin_at c page with
        | Status.M_resident Status.O_anon ->
          let frame = Mm_phys.Phys.frame kernel.Kernel.phys pfn in
          if frame.Mm_phys.Frame.map_count <> 1 || frame.Mm_phys.Frame.wired
          then false
          else begin
            let contents = frame.Mm_phys.Frame.contents in
            let apager =
              Vm_object.pager ~dev ~phys:kernel.Kernel.phys
            in
            match apager.Pager.put_pages [ (0, contents) ] with
            | [ block ] ->
              Addr_space.sync_shootdown c;
              Addr_space.unmap c ~lo:page ~hi:(page + ps);
              Addr_space.set_swapped c ~vaddr:page ~dev ~block ~perm;
              if Mm_obs.Trace.on () then
                Mm_sim.Engine.obs (Mm_obs.Event.Reclaim_page { pfn });
              true
            | _ -> false
          end
        | _ -> false)
      | _ -> false)

(* -- Reclaim of mapped file/shm pages -- *)

(* Revert one resident file-backed page to its unfaulted backing status:
   the PTE goes away (with its TLB shootdown committing before the
   transaction ends) but the mapping itself stays, so the next access
   refaults through the file pager. Returns false when the page is not a
   resident file/shm page. *)
let unmap_file_page asp ~vaddr =
  let ps = Addr_space.page_size asp in
  let page = Mm_util.Align.down vaddr ps in
  Addr_space.with_lock asp ~lo:page ~hi:(page + ps) (fun c ->
      match Addr_space.query c page with
      | Status.Mapped { perm; _ } -> (
        match Addr_space.origin_at c page with
        | Status.M_resident (Status.O_file (file, offset)) ->
          (* A COW-shared cache page was mapped read-only; the backing
             status keeps the original protection. *)
          let orig =
            if perm.Perm.cow then
              Perm.with_write (Perm.with_cow perm false) true
            else perm
          in
          Addr_space.sync_shootdown c;
          Addr_space.unmap c ~lo:page ~hi:(page + ps);
          Addr_space.mark c ~lo:page ~hi:(page + ps)
            (Status.Private_file { file; offset; perm = orig });
          true
        | Status.M_resident (Status.O_shm (shm, offset)) ->
          Addr_space.sync_shootdown c;
          Addr_space.unmap c ~lo:page ~hi:(page + ps);
          Addr_space.mark c ~lo:page ~hi:(page + ps)
            (Status.Shared_anon { shm; offset; perm });
          true
        | _ -> false)
      | _ -> false)

(* -- mlock / munlock: wire and unwire resident pages -- *)

(* POSIX-shaped failures: EINVAL for a malformed range, EPERM when the
   request would exceed the wired-page limit (RLIMIT_MEMLOCK), ENOMEM
   when part of the range is not mapped, EAGAIN when some pages could
   not be faulted in (frame exhaustion while populating). *)
let mlock_r asp ~addr ~len =
  let ps = Addr_space.page_size asp in
  if len <= 0 || addr < 0 || addr mod ps <> 0 then Error Errno.EINVAL
  else begin
    Mm_sim.Engine.charge Mm_sim.Cost.syscall;
    let len = Mm_util.Align.up len ps in
    let npages = len / ps in
    let kernel = Addr_space.kernel asp in
    if
      kernel.Kernel.wired_limit <> max_int
      && kernel.Kernel.wired_pages + npages > kernel.Kernel.wired_limit
    then Error Errno.EPERM
    else begin
      (* mlock populates: fault every page of the range in. *)
      let populated =
        try touch_range_r asp ~addr ~len ~write:false
        with Mm_phys.Buddy.Out_of_memory -> Error Errno.EAGAIN
      in
      match populated with
      | Error (Errno.SIGSEGV _) -> Error Errno.ENOMEM (* unmapped range *)
      | Error _ as e -> e
      | Ok () ->
        let phys = kernel.Kernel.phys in
        Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
            for i = 0 to npages - 1 do
              let v = addr + (i * ps) in
              match Addr_space.query c v with
              | Status.Mapped { pfn; _ } ->
                let f = Mm_phys.Phys.frame phys pfn in
                if not f.Mm_phys.Frame.wired then begin
                  f.Mm_phys.Frame.wired <- true;
                  kernel.Kernel.wired_pages <-
                    kernel.Kernel.wired_pages + 1;
                  if Mm_obs.Trace.on () then
                    Mm_sim.Engine.obs (Mm_obs.Event.Page_wired { pfn })
                end
              | _ -> ()
            done);
        Ok ()
    end
  end

let munlock_r asp ~addr ~len =
  let ps = Addr_space.page_size asp in
  if len <= 0 || addr < 0 || addr mod ps <> 0 then Error Errno.EINVAL
  else begin
    Mm_sim.Engine.charge Mm_sim.Cost.syscall;
    let len = Mm_util.Align.up len ps in
    let npages = len / ps in
    let kernel = Addr_space.kernel asp in
    let phys = kernel.Kernel.phys in
    Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
        for i = 0 to npages - 1 do
          let v = addr + (i * ps) in
          match Addr_space.query c v with
          | Status.Mapped { pfn; _ } ->
            let f = Mm_phys.Phys.frame phys pfn in
            if f.Mm_phys.Frame.wired then begin
              f.Mm_phys.Frame.wired <- false;
              kernel.Kernel.wired_pages <- kernel.Kernel.wired_pages - 1;
              if Mm_obs.Trace.on () then
                Mm_sim.Engine.obs (Mm_obs.Event.Page_unwired { pfn })
            end
          | _ -> ()
        done);
    Ok ()
  end

(* -- pkey_mprotect: tag a range with an MPK protection key (x86-64) -- *)

let pkey_mprotect asp ~addr ~len ~perm ~key =
  if not (Kernel.supports_mpk (Addr_space.kernel asp)) then
    invalid_arg "pkey_mprotect: ISA without protection keys";
  if key < 0 || key > 15 then invalid_arg "pkey_mprotect: key";
  mprotect asp ~addr ~len ~perm:(Perm.with_mpk perm key)

(* -- mbind: set the NUMA policy of a range (stored in the metadata) -- *)

let mbind asp ~addr ~len ~policy =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + len) (fun c ->
      Addr_space.update_policy c ~lo:addr ~hi:(addr + len) policy)

(* -- Timer tick: drains the LATR buffers (paper §4.5) -- *)

let timer_tick asp =
  match Mm_sim.Engine.current () with
  | Some f -> Mm_tlb.Tlb.timer_tick (Addr_space.tlb asp) ~cpu:f.f_cpu
  | None -> ()

(* -- Simulated user write: updates the data token for COW verification -- *)

(* A page that vanishes between the touch and the locked query (another
   thread's munmap winning the race) is the same observable outcome as a
   fault on the access itself: a typed SIGSEGV, not a crash. A page that
   was paged out in between (reclaim on another CPU) is still mapped:
   drop this CPU's translation and retry the access, which faults it back
   in. *)
let rec with_resident_page asp ~vaddr ~write f =
  match touch_r asp ~vaddr ~write with
  | Error _ as e -> e
  | Ok () -> (
    let ps = Addr_space.page_size asp in
    let page = Mm_util.Align.down vaddr ps in
    let r =
      Addr_space.with_lock asp ~lo:page ~hi:(page + ps) (fun c ->
          match Addr_space.query c page with
          | Status.Mapped { pfn; _ } ->
            let phys = (Addr_space.kernel asp).Kernel.phys in
            Some (Ok (f (Mm_phys.Phys.frame phys pfn)))
          | Status.Invalid -> Some (Error (Errno.SIGSEGV page))
          | _ -> None)
    in
    match r with
    | Some r -> r
    | None ->
      Mm_tlb.Tlb.flush_local (Addr_space.tlb asp)
        ~cpu:(Mm_sim.Engine.cpu_or_zero ()) ~vpns:[ page / ps ];
      with_resident_page asp ~vaddr ~write f)

let write_value_r asp ~vaddr ~value =
  with_resident_page asp ~vaddr ~write:true (fun frame ->
      frame.Mm_phys.Frame.contents <- value)

let write_value asp ~vaddr ~value =
  match write_value_r asp ~vaddr ~value with
  | Ok () -> ()
  | Error (Errno.SIGSEGV v) -> raise (Fault v)
  | Error _ -> raise (Fault vaddr)

let read_value_r asp ~vaddr =
  with_resident_page asp ~vaddr ~write:false (fun frame ->
      frame.Mm_phys.Frame.contents)

let read_value asp ~vaddr =
  match read_value_r asp ~vaddr with
  | Ok v -> v
  | Error (Errno.SIGSEGV v) -> raise (Fault v)
  | Error _ -> raise (Fault vaddr)

(* -- The typed syscall surface -- *)

(* Result-returning variants of the syscalls: malformed requests are
   classified as EINVAL before any simulated work, exhaustion as ENOMEM.
   All validation is host-side — a valid request charges exactly the
   cycles the exception-style entry point does. *)

let mmap_r asp ?addr ?backing ?policy ~len ~perm () =
  let ps = Addr_space.page_size asp in
  let bad_addr =
    match addr with Some a -> a < 0 || a mod ps <> 0 | None -> false
  in
  if len <= 0 || bad_addr then Error Errno.EINVAL
  else
    try Ok (mmap asp ?addr ?backing ?policy ~len ~perm ())
    with Enomem | Mm_phys.Buddy.Out_of_memory | Va_alloc.Va_exhausted ->
      Error Errno.ENOMEM

let munmap_r asp ~addr ~len =
  let ps = Addr_space.page_size asp in
  if len <= 0 || addr < 0 || addr mod ps <> 0 then Error Errno.EINVAL
  else Ok (munmap asp ~addr ~len)

let mprotect_r asp ~addr ~len ~perm =
  let ps = Addr_space.page_size asp in
  if len <= 0 || addr < 0 || addr mod ps <> 0 then Error Errno.EINVAL
  else Ok (mprotect asp ~addr ~len ~perm)
