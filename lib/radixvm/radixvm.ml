(* RadixVM baseline (Clements et al., EuroSys'13).

   RadixVM replaces the VMA tree with a radix tree over the virtual address
   space whose leaves store per-page metadata, and gives each core a
   *private* page table so that page faults never touch another core's
   cache lines (no coherence traffic on PTE installs). The costs are
   (1) memory: page tables are replicated per core, and (2) munmap must
   update every replica that mapped the region and shoot down exactly
   those cores' TLBs (precise tracking).

   The model: a software radix tree (9-bit fanout, like the hardware
   format) whose leaf nodes carry a lock, a cache line and a core mask;
   lookups are lock-free; modifications lock the leaf node. Each core owns
   a private [Pt] instance populated on its own faults. The paper's
   observation that RadixVM beats CortenMM_adv on high-contention PF comes
   out of this structure: concurrent faults on the same region lock the
   same radix leaf briefly but install PTEs into *different* page tables,
   so there is no contended PTE cache line.

   Every radix node keeps an occupancy bitset of its non-empty slots, so
   fork and destroy visit only those, and stores its slots in 64-entry
   chunks allocated by the first non-empty store into each. *)

open Mm_hal
module Pt = Mm_pt.Pt
module Va_alloc = Cortenmm.Va_alloc
module Chunked = Mm_util.Chunked

type fault_outcome = Handled | Sigsegv

type rx_entry =
  | R_empty
  | R_reserved of Perm.t (* allocated, not yet backed *)
  | R_mapped of { pfn : int; perm : Perm.t }

type rx_node = {
  level : int; (* 1 = leaf node holding per-page entries *)
  entries : rx_entry Chunked.t; (* used at level 1 *)
  children : rx_node option Chunked.t; (* used above level 1 *)
  occ : Bytes.t; (* bit [i] set iff slot [i] is not [R_empty] / [None] *)
  lock : Mm_sim.Mutex_s.t;
  line : Mm_sim.Engine.Line.t;
  mutable core_mask : int; (* cores whose PT may map pages under here *)
}

type t = {
  phys : Mm_phys.Phys.t;
  isa : Isa.t;
  ncpus : int;
  root : rx_node;
  pts : unit Pt.t option array; (* per-core private page tables *)
  tlb : Mm_tlb.Tlb.t;
  va : Va_alloc.t;
  (* Bytes of radix-tree nodes, for the memory-overhead experiment. *)
  mutable radix_nodes : int;
}

let fanout_bits = 9
let fanout = 1 lsl fanout_bits
let levels = 4
let radix_node_bytes = fanout * 8

(* The unused table of a node: leaves have no children, interior nodes
   no entries. *)
let no_entries = Chunked.create 0 ~absent:R_empty
let no_children = Chunked.create 0 ~absent:None

let make_node ~level =
  {
    level;
    entries =
      (if level = 1 then Chunked.create fanout ~absent:R_empty else no_entries);
    children =
      (if level > 1 then Chunked.create fanout ~absent:None else no_children);
    occ = Mm_util.Bitset.create fanout;
    lock = Mm_sim.Mutex_s.make ~name:"radixvm.node_lock" ();
    line = Mm_sim.Engine.Line.make ();
    core_mask = 0;
  }

(* Slot writes, keeping the occupancy bits in step. *)
let set_entry node idx e =
  Chunked.set node.entries idx e;
  match e with
  | R_empty -> Mm_util.Bitset.remove node.occ idx
  | R_reserved _ | R_mapped _ -> Mm_util.Bitset.add node.occ idx

let set_child node idx c =
  Chunked.set node.children idx (Some c);
  Mm_util.Bitset.add node.occ idx

let iter_occupied node f =
  Mm_util.Bitset.iter node.occ ~from:0 ~stop:fanout f

let va_lo = 0x1000_0000

let create ?(isa = Isa.x86_64) ~ncpus () =
  let phys = Mm_phys.Phys.create () in
  let geo = isa.Isa.geo in
  let t =
    {
      phys;
      isa;
      ncpus;
      root = make_node ~level:levels;
      pts = Array.make ncpus None;
      tlb = Mm_tlb.Tlb.create ~ncpus ~strategy:Mm_tlb.Tlb.Sync ();
      va =
        Va_alloc.create ~ncpus ~per_core:true ~va_lo
          ~va_hi:(Geometry.va_limit geo) ~page_size:(Geometry.page_size geo);
      radix_nodes = 1;
    }
  in
  Mm_phys.Phys.kernel_alloc_bytes phys ~bytes:radix_node_bytes;
  t

let page_size t = Geometry.page_size t.isa.Isa.geo
let phys t = t.phys
let tlb t = t.tlb

let pt_for t ~cpu =
  match t.pts.(cpu) with
  | Some pt -> pt
  | None ->
    let pt = Pt.create t.phys t.isa in
    t.pts.(cpu) <- Some pt;
    pt

let index ~level ~vpn = (vpn lsr (fanout_bits * (level - 1))) land (fanout - 1)

(* Lock-free descent to the leaf radix node of [vpn], if it exists. *)
let leaf_opt t ~vpn =
  let rec go node =
    (match Mm_sim.Engine.current () with
    | Some f ->
      Mm_sim.Engine.tick_on f Mm_sim.Cost.vma_node_visit;
      Mm_sim.Engine.Line.read_on f node.line
    | None -> ());
    if node.level = 1 then Some node
    else
      match Chunked.get node.children (index ~level:node.level ~vpn) with
      | Some c -> go c
      | None -> None
  in
  go t.root

(* Descent that creates missing interior nodes (under their parents'
   locks). *)
let leaf_create t ~vpn =
  let rec go node =
    Mm_sim.Engine.charge Mm_sim.Cost.vma_node_visit;
    if node.level = 1 then node
    else
      let idx = index ~level:node.level ~vpn in
      match Chunked.get node.children idx with
      | Some c -> go c
      | None ->
        Mm_sim.Mutex_s.lock node.lock;
        let c =
          match Chunked.get node.children idx with
          | Some c -> c
          | None ->
            Mm_sim.Engine.charge Mm_sim.Cost.page_alloc;
            let c = make_node ~level:(node.level - 1) in
            t.radix_nodes <- t.radix_nodes + 1;
            Mm_phys.Phys.kernel_alloc_bytes t.phys ~bytes:radix_node_bytes;
            set_child node idx c;
            c
        in
        Mm_sim.Mutex_s.unlock node.lock;
        go c
  in
  go t.root

let entry_idx ~vpn = vpn land (fanout - 1)

(* -- Operations -- *)

let mmap t ?addr ~len ~perm () =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  let lo =
    match addr with
    | Some a -> a
    | None -> Va_alloc.alloc t.va ~cpu ~len ()
  in
  let npages = len / ps in
  let vpn0 = lo / ps in
  (* Mark pages reserved, locking each leaf radix node once. The reserved
     entry is immutable and identical for the whole range — share one
     block instead of allocating it per page (1 GiB = 256 Ki pages). *)
  let reserved = R_reserved perm in
  let i = ref 0 in
  while !i < npages do
    let vpn = vpn0 + !i in
    let leaf = leaf_create t ~vpn in
    Mm_sim.Mutex_s.lock leaf.lock;
    let in_this_leaf = min (npages - !i) (fanout - entry_idx ~vpn) in
    for k = 0 to in_this_leaf - 1 do
      Mm_sim.Engine.charge Mm_sim.Cost.meta_write;
      Chunked.set leaf.entries (entry_idx ~vpn + k) reserved
    done;
    Mm_util.Bitset.fill leaf.occ ~from:(entry_idx ~vpn)
      ~stop:(entry_idx ~vpn + in_this_leaf);
    Mm_sim.Mutex_s.unlock leaf.lock;
    i := !i + in_this_leaf
  done;
  lo

let install_pte t ~cpu ~vpn ~pfn ~perm =
  let pt = pt_for t ~cpu in
  let vaddr = vpn * page_size t in
  let node = Pt.walk_create pt ~to_level:1 vaddr in
  Pt.set pt node (Pt.index pt ~level:1 ~vaddr) (Pte.leaf ~pfn ~perm ());
  Mm_tlb.Tlb.install t.tlb ~cpu ~vpn ~pfn ~writable:perm.Perm.write ()

let page_fault t ~vaddr ~write =
  Mm_sim.Engine.charge Mm_sim.Cost.trap;
  let ps = page_size t in
  let vpn = vaddr / ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  match leaf_opt t ~vpn with
  | None -> Sigsegv
  | Some leaf -> (
    let idx = entry_idx ~vpn in
    match Chunked.get leaf.entries idx with
    | R_empty -> Sigsegv
    | R_reserved perm when not (Perm.allows perm ~write) -> Sigsegv
    | R_mapped { perm; _ } when not (Perm.allows perm ~write) -> Sigsegv
    | R_reserved perm ->
      Mm_sim.Mutex_s.lock leaf.lock;
      (match Chunked.get leaf.entries idx with
      | R_reserved _ ->
        Mm_sim.Engine.charge (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_zero);
        let frame = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
        Mm_phys.Phys.set_map_count t.phys frame 1;
        set_entry leaf idx (R_mapped { pfn = (frame :> int); perm });
        leaf.core_mask <- leaf.core_mask lor (1 lsl cpu);
        Mm_sim.Mutex_s.unlock leaf.lock;
        install_pte t ~cpu ~vpn ~pfn:(frame :> int) ~perm
      | R_mapped { pfn; perm } ->
        (* Raced: another core backed it; install into our replica only. *)
        leaf.core_mask <- leaf.core_mask lor (1 lsl cpu);
        Mm_sim.Mutex_s.unlock leaf.lock;
        install_pte t ~cpu ~vpn ~pfn ~perm
      | R_empty ->
        Mm_sim.Mutex_s.unlock leaf.lock;
        raise Exit);
      Handled
    | R_mapped { pfn; perm } ->
      (* Present elsewhere: replicate the translation into our private PT.
         No lock needed — the mask update is monotone and the per-core
         tracking is refcache-style (per-core, reconciled lazily). *)
      Mm_sim.Engine.charge Mm_sim.Cost.meta_write;
      leaf.core_mask <- leaf.core_mask lor (1 lsl cpu);
      install_pte t ~cpu ~vpn ~pfn ~perm;
      Handled)

(* Drop the one mapping RadixVM keeps of a frame, freeing it if it is
   anonymous. *)
let release t pfn =
  let f = Mm_phys.Phys.frame t.phys pfn in
  Mm_phys.Phys.set_map_count t.phys f 0;
  if Mm_phys.Phys.kind t.phys f = Mm_phys.Frame.Anon then begin
    Mm_sim.Engine.charge Mm_sim.Cost.page_free;
    Mm_phys.Phys.free t.phys f
  end

let munmap t ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  let npages = len / ps in
  let vpn0 = addr / ps in
  let i = ref 0 in
  while !i < npages do
    let vpn = vpn0 + !i in
    match leaf_opt t ~vpn with
    | None -> i := !i + (fanout - entry_idx ~vpn)
    | Some leaf ->
      Mm_sim.Mutex_s.lock leaf.lock;
      let in_this_leaf = min (npages - !i) (fanout - entry_idx ~vpn) in
      let vpns = ref [] in
      for k = 0 to in_this_leaf - 1 do
        let idx = entry_idx ~vpn + k in
        match Chunked.get leaf.entries idx with
        | R_mapped { pfn; _ } ->
          set_entry leaf idx R_empty;
          vpns := (vpn + k) :: !vpns;
          (* Remove from every core's replica that may map it. *)
          for c = 0 to t.ncpus - 1 do
            if leaf.core_mask land (1 lsl c) <> 0 then begin
              match t.pts.(c) with
              | Some pt ->
                let vaddr = (vpn + k) * ps in
                let node = Pt.walk_opt pt ~to_level:1 vaddr in
                if node.Pt.level = 1 then begin
                  match Pt.get pt node (Pt.index pt ~level:1 ~vaddr) with
                  | Pte.Leaf _ ->
                    Pt.set pt node (Pt.index pt ~level:1 ~vaddr) Pte.Absent
                  | Pte.Absent | Pte.Table _ -> ()
                end
              | None -> ()
            end
          done;
          release t pfn
        | R_reserved _ -> set_entry leaf idx R_empty
        | R_empty -> ()
      done;
      (* Precise shootdown: only the cores in the leaf's mask. *)
      (if !vpns <> [] && Mm_sim.Engine.in_fiber () then
         let targets =
           Array.init t.ncpus (fun c -> leaf.core_mask land (1 lsl c) <> 0)
         in
         Mm_tlb.Tlb.shootdown t.tlb ~targets ~vpns:!vpns);
      Mm_sim.Mutex_s.unlock leaf.lock;
      i := !i + in_this_leaf
  done;
  Va_alloc.free t.va ~cpu ~addr ~len

exception Fault of int

let touch t ~vaddr ~write =
  let ps = page_size t in
  let vpn = vaddr / ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  match Mm_tlb.Tlb.lookup t.tlb ~cpu ~vpn ~write with
  | Some _ -> ()
  | None -> (
    (* Walk our private page table. *)
    let pt = pt_for t ~cpu in
    let node = Pt.walk_opt pt ~to_level:1 vaddr in
    let hit =
      node.Pt.level = 1
      &&
      match Pt.get pt node (Pt.index pt ~level:1 ~vaddr) with
      | Pte.Leaf { pfn; perm; _ } when Perm.allows perm ~write ->
        Mm_tlb.Tlb.install t.tlb ~cpu ~vpn ~pfn ~writable:perm.Perm.write ();
        true
      | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> false
    in
    if not hit then
      match page_fault t ~vaddr ~write with
      | Handled -> ()
      | Sigsegv -> raise (Fault vaddr))

let touch_range t ~addr ~len ~write =
  let ps = page_size t in
  let rec go v =
    if v < addr + len then begin
      touch t ~vaddr:v ~write;
      go (v + ps)
    end
  in
  go addr

(* Total page-table bytes across all replicas — RadixVM's memory cost. *)
let replicated_pt_bytes t =
  let ps = page_size t in
  Array.fold_left
    (fun acc pt ->
      match pt with Some pt -> acc + (Pt.pt_page_count pt * ps) | None -> acc)
    0 t.pts

let radix_bytes t = t.radix_nodes * radix_node_bytes

(* Normalized observation of one page for the differential oracle: a
   pure (uncharged, lock-free) descent of the radix tree. The radix
   entry is the authoritative state — per-core page tables are derived
   caches of it. *)
let page_state t ~vaddr =
  let vpn = vaddr / page_size t in
  let rec go node =
    if node.level = 1 then Some node
    else
      match Chunked.get node.children (index ~level:node.level ~vpn) with
      | Some c -> go c
      | None -> None
  in
  match go t.root with
  | None -> `Unmapped
  | Some leaf -> (
    match Chunked.get leaf.entries (entry_idx ~vpn) with
    | R_empty -> `Unmapped
    | R_reserved perm -> `Lazy perm.Perm.write
    | R_mapped { perm; _ } -> `Resident perm.Perm.write)

(* -- fork: eager copy. RadixVM does not claim COW; the child gets its
   own radix tree with fresh frames (contents copied) and empty per-core
   page tables that refill on its own faults — observationally identical
   to a COW fork for private memory, which is what the oracle diffs. *)

let fork t =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  let child =
    {
      phys = t.phys;
      isa = t.isa;
      ncpus = t.ncpus;
      root = make_node ~level:levels;
      pts = Array.make t.ncpus None;
      tlb = Mm_tlb.Tlb.create ~ncpus:t.ncpus ~strategy:Mm_tlb.Tlb.Sync ();
      va = Va_alloc.clone t.va;
      radix_nodes = 1;
    }
  in
  Mm_phys.Phys.kernel_alloc_bytes t.phys ~bytes:radix_node_bytes;
  let rec copy node ~vpn_base =
    Mm_sim.Engine.charge Mm_sim.Cost.vma_node_visit;
    if node.level = 1 then begin
      Mm_sim.Mutex_s.lock node.lock;
      iter_occupied node (fun idx ->
        match Chunked.get node.entries idx with
        | R_empty -> ()
        | R_reserved _ as e ->
          let vpn = vpn_base + idx in
          let leaf = leaf_create child ~vpn in
          Mm_sim.Engine.charge Mm_sim.Cost.meta_write;
          set_entry leaf (entry_idx ~vpn) e
        | R_mapped { pfn; perm } ->
          let vpn = vpn_base + idx in
          Mm_sim.Engine.charge (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_copy);
          let f = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
          let src = Mm_phys.Phys.frame t.phys pfn in
          Mm_phys.Phys.set_contents t.phys f (Mm_phys.Phys.contents t.phys src);
          Mm_phys.Phys.set_map_count t.phys f 1;
          let leaf = leaf_create child ~vpn in
          set_entry leaf (entry_idx ~vpn) (R_mapped { pfn = (f :> int); perm }));
      Mm_sim.Mutex_s.unlock node.lock
    end
    else
      let span = 1 lsl (fanout_bits * (node.level - 1)) in
      iter_occupied node (fun i ->
          match Chunked.get node.children i with
          | Some c -> copy c ~vpn_base:(vpn_base + (i * span))
          | None -> ())
  in
  copy t.root ~vpn_base:0;
  child

(* Tear one per-core page-table replica down: clear leaves (the radix
   sweep owns frame lifetimes) and free the interior PT pages. *)
let free_pt_pages pt =
  let rec go node =
    Pt.iter_present pt node (fun idx ->
      match Pt.get_uncharged pt node idx with
      | Mm_hal.Pte.Table _ ->
        let c = Pt.detach_child pt node idx in
        go c;
        Pt.free_node pt c
      | Mm_hal.Pte.Leaf _ -> Pt.set pt node idx Mm_hal.Pte.Absent
      | Mm_hal.Pte.Absent -> ())
  in
  go (Pt.root pt)

let destroy t =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  (* The radix tree is authoritative for frame lifetimes: free every
     mapped anon frame once, then drop the derived per-core caches. *)
  let rec sweep node =
    if node.level = 1 then
      iter_occupied node (fun idx ->
        match Chunked.get node.entries idx with
        | R_mapped { pfn; _ } ->
          set_entry node idx R_empty;
          release t pfn
        | R_reserved _ -> set_entry node idx R_empty
        | R_empty -> ())
    else
      iter_occupied node (fun i ->
          match Chunked.get node.children i with Some c -> sweep c | None -> ())
  in
  sweep t.root;
  Mm_phys.Phys.kernel_free_bytes t.phys
    ~bytes:(t.radix_nodes * radix_node_bytes);
  t.radix_nodes <- 0;
  Array.iteri
    (fun i pt ->
      match pt with
      | Some pt ->
        free_pt_pages pt;
        t.pts.(i) <- None
      | None -> ())
    t.pts

(* Simulated data access, mirroring Cortenmm.Mm for the COW-fork oracle:
   touch resolves residency, then the authoritative radix entry names the
   frame whose contents token we read or write. *)
let with_pfn t ~vaddr f =
  let vpn = vaddr / page_size t in
  match leaf_opt t ~vpn with
  | None -> raise (Fault vaddr)
  | Some leaf -> (
    match Chunked.get leaf.entries (entry_idx ~vpn) with
    | R_mapped { pfn; _ } -> f t.phys (Mm_phys.Phys.frame t.phys pfn)
    | R_empty | R_reserved _ -> raise (Fault vaddr))

let write_value t ~vaddr ~value =
  touch t ~vaddr ~write:true;
  with_pfn t ~vaddr (fun phys f -> Mm_phys.Phys.set_contents phys f value)

let read_value t ~vaddr =
  touch t ~vaddr ~write:false;
  with_pfn t ~vaddr Mm_phys.Phys.contents
