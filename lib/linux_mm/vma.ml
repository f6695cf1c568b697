(* The software-level abstraction CortenMM eliminates: virtual memory
   areas stored in a maple tree (Linux's actual structure since 6.1
   [55]; see {!Maple}). Each VMA carries its own readers-writer lock
   (per-VMA locks, [30]) and a sequence count used by munmap's
   mark-before-downgrade dance (Fig 2). vm_area_structs come from a slab
   cache, as in Linux.

   Tree reads are lock-free (RCU); the callers take mmap_lock / per-VMA
   locks per the paper's Table 1. *)

type vma = {
  mutable v_start : int;
  mutable v_end : int;
  mutable perm : Mm_hal.Perm.t;
  vma_lock : Mm_sim.Rwlock_s.t;
  mutable seq : int; (* vm_lock_seq: marked by munmap before downgrade *)
  line : Mm_sim.Engine.Line.t;
  slab_handle : int; (* where this struct lives in the vma slab cache *)
}

(* Modelled size of a vm_area_struct. *)
let vma_struct_bytes = 200

type t = {
  tree : vma Maple.t;
  cache : Mm_phys.Slab.t; (* the vm_area_struct slab cache *)
}

let create phys =
  {
    tree = Maple.create ~start:(fun v -> v.v_start) ~stop:(fun v -> v.v_end);
    cache =
      Mm_phys.Slab.create phys ~name:"vm_area_struct"
        ~obj_size:vma_struct_bytes;
  }

let alloc_vma t ~start ~end_ ~perm =
  Mm_sim.Engine.charge Mm_sim.Cost.vma_alloc;
  let slab_handle = Mm_phys.Slab.alloc t.cache in
  {
    v_start = start;
    v_end = end_;
    perm;
    vma_lock = Mm_sim.Rwlock_s.make ~bravo:false ~name:"linux.vma_lock" ();
    seq = 0;
    line = Mm_sim.Engine.Line.make ();
    slab_handle;
  }

let release_vma t (v : vma) =
  Mm_sim.Engine.charge Mm_sim.Cost.vma_free;
  Mm_phys.Slab.free t.cache v.slab_handle

let slab_bytes t = Mm_phys.Slab.bytes_reserved t.cache

(* -- Tree operations (cost charging lives in Maple) -- *)

let find t addr = Maple.find t.tree addr
let insert_node t vma = Maple.insert t.tree vma
let remove_node t start = ignore (Maple.remove t.tree start)
let overlapping t ~lo ~hi = Maple.overlapping t.tree ~lo ~hi
let iter t f = Maple.iter t.tree f
let count t = Maple.count t.tree
let tree_height t = Maple.height t.tree

(* Does [lo, hi) overlap any VMA? *)
let overlaps t ~lo ~hi = overlapping t ~lo ~hi <> []

(* -- Higher-level mutations (caller holds mmap_lock for writing) -- *)

let insert t ~start ~end_ ~perm =
  let vma = alloc_vma t ~start ~end_ ~perm in
  insert_node t vma;
  vma

(* Insert with merging: if an adjacent anonymous VMA with equal
   permissions abuts the new range, extend it instead of allocating — the
   vma_merge path that makes Linux's mmap of consecutive regions cheap
   (the paper's mmap microbenchmark hits it constantly). *)
let insert_or_merge t ~start ~end_ ~perm =
  let prev = find t (start - 1) in
  match prev with
  | Some v when v.v_end = start && Mm_hal.Perm.equal v.perm perm ->
    Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
    v.v_end <- end_;
    v
  | _ -> (
    let next = find t end_ in
    match next with
    | Some v when v.v_start = end_ && Mm_hal.Perm.equal v.perm perm ->
      (* Extending downward re-keys the node: remove + reinsert. *)
      Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
      remove_node t v.v_start;
      v.v_start <- start;
      insert_node t v;
      v
    | _ -> insert t ~start ~end_ ~perm)

(* Remove [lo, hi) from the tree, splitting partially covered VMAs — the
   costly node-splitting the paper blames for Linux's unmap-virt result. *)
let remove_range t ~lo ~hi =
  let victims = overlapping t ~lo ~hi in
  List.iter
    (fun v ->
      remove_node t v.v_start;
      let left_rest = v.v_start < lo in
      let right_rest = v.v_end > hi in
      if left_rest then begin
        let lv = alloc_vma t ~start:v.v_start ~end_:lo ~perm:v.perm in
        insert_node t lv
      end;
      if right_rest then begin
        let rv = alloc_vma t ~start:hi ~end_:v.v_end ~perm:v.perm in
        insert_node t rv
      end;
      release_vma t v)
    victims;
  victims

(* Narrow every VMA overlapping [lo, hi) to exactly that range with the
   given permissions (mprotect semantics). *)
let split_for_protect t ~lo ~hi ~perm =
  let victims = overlapping t ~lo ~hi in
  List.iter
    (fun v ->
      let s = max v.v_start lo and e = min v.v_end hi in
      remove_node t v.v_start;
      if v.v_start < s then
        insert_node t (alloc_vma t ~start:v.v_start ~end_:s ~perm:v.perm);
      if v.v_end > e then
        insert_node t (alloc_vma t ~start:e ~end_:v.v_end ~perm:v.perm);
      insert_node t (alloc_vma t ~start:s ~end_:e ~perm);
      release_vma t v)
    victims
