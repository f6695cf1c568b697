(* Buddy allocator over physical frame numbers.

   Follows the Linux design the paper cites for CortenMM's physical memory
   management (§4.5): power-of-two blocks, split on allocation, merge with
   the buddy on free. Frames are identified by pfn only; descriptors are
   materialized lazily by {!Phys}. The allocator itself is a plain data
   structure — callers charge simulation costs.

   Blocks that have never been allocated live beyond a bump frontier, so
   the allocator handles address spaces far larger than the set of frames
   actually touched.

   Free lists are per-order sorted sets of block pfns, so the deterministic
   smallest-pfn pop is O(log n) instead of a full scan, and an occupancy
   bitmask (bit o set iff order o has free blocks) makes "is anything free
   above this order" a single mask test. *)

module Iset = Set.Make (Int)

let max_order = 10

type t = {
  nframes : int;
  mutable frontier : int; (* every pfn >= frontier is virgin memory *)
  free_sets : Iset.t array; (* per order: sorted set of block pfns *)
  free_counts : int array; (* per order: cardinality of [free_sets] *)
  mutable occupancy : int; (* bit o set iff [free_sets.(o)] is nonempty *)
  mutable allocated_frames : int;
  mutable splits : int;
  mutable merges : int;
}

let create ~nframes =
  if nframes <= 0 then invalid_arg "Buddy.create: nframes";
  {
    nframes;
    frontier = 0;
    free_sets = Array.make (max_order + 1) Iset.empty;
    free_counts = Array.make (max_order + 1) 0;
    occupancy = 0;
    allocated_frames = 0;
    splits = 0;
    merges = 0;
  }

let block_size order = 1 lsl order

let is_free_block t ~pfn ~order = Iset.mem pfn t.free_sets.(order)

let remove_free t ~pfn ~order =
  t.free_sets.(order) <- Iset.remove pfn t.free_sets.(order);
  t.free_counts.(order) <- t.free_counts.(order) - 1;
  if t.free_counts.(order) = 0 then
    t.occupancy <- t.occupancy land lnot (1 lsl order)

let add_free t ~pfn ~order =
  t.free_sets.(order) <- Iset.add pfn t.free_sets.(order);
  t.free_counts.(order) <- t.free_counts.(order) + 1;
  t.occupancy <- t.occupancy lor (1 lsl order)

let buddy_of ~pfn ~order = pfn lxor block_size order

(* Take the smallest-pfn block from a free list (deterministic). *)
let pop_free t ~order =
  if t.occupancy land (1 lsl order) = 0 then None
  else begin
    let pfn = Iset.min_elt t.free_sets.(order) in
    remove_free t ~pfn ~order;
    Some pfn
  end

exception Out_of_memory

let rec alloc_block t ~order =
  if order > max_order then raise Out_of_memory;
  match pop_free t ~order with
  | Some pfn -> pfn
  | None ->
    if not (any_free_above t ~order) then begin
      (* Carve from the virgin frontier, aligned to the block size. *)
      let pfn = Mm_util.Align.up t.frontier (block_size order) in
      if pfn + block_size order > t.nframes then raise Out_of_memory;
      (* Return the alignment gap to the free lists. *)
      release_range t ~lo:t.frontier ~hi:pfn;
      t.frontier <- pfn + block_size order;
      pfn
    end
    else begin
      (* Split a larger block. *)
      let big = alloc_block t ~order:(order + 1) in
      t.splits <- t.splits + 1;
      add_free t ~pfn:(big + block_size order) ~order;
      big
    end

and any_free_above t ~order =
  t.occupancy land lnot ((1 lsl (order + 1)) - 1) <> 0

and release_range t ~lo ~hi =
  (* Free the frames in [lo, hi) created by frontier alignment, as maximal
     aligned power-of-two blocks, merging with existing free buddies. *)
  let lo = ref lo in
  while !lo < hi do
    let max_align =
      let rec go o =
        if
          o < max_order
          && Mm_util.Align.is_aligned !lo (block_size (o + 1))
          && !lo + block_size (o + 1) <= hi
        then go (o + 1)
        else o
      in
      go 0
    in
    insert_and_merge t ~pfn:!lo ~order:max_align ~limit:hi;
    lo := !lo + block_size max_align
  done

(* Insert a free block, merging upward while its buddy is also free.
   [limit] bounds how far a merge may look (the frontier for ordinary
   frees; the carve point during [release_range], whose blocks must not
   merge with anything beyond what exists yet). *)
and insert_and_merge t ~pfn ~order ~limit =
  let rec merge pfn order =
    let b = buddy_of ~pfn ~order in
    if order < max_order && b + block_size order <= limit
       && is_free_block t ~pfn:b ~order
    then begin
      remove_free t ~pfn:b ~order;
      t.merges <- t.merges + 1;
      merge (min pfn b) (order + 1)
    end
    else add_free t ~pfn ~order
  in
  merge pfn order

(* With no order holding a free block, an order-0 request is the frame
   at the frontier: [alloc_block]'s carve with no alignment gap, without
   its search of the free lists. *)
let alloc t ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc: order";
  let pfn =
    if order = 0 && t.occupancy = 0 then begin
      let pfn = t.frontier in
      if pfn + 1 > t.nframes then raise Out_of_memory;
      t.frontier <- pfn + 1;
      pfn
    end
    else alloc_block t ~order
  in
  t.allocated_frames <- t.allocated_frames + block_size order;
  pfn

let free t ~pfn ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.free: order";
  if not (Mm_util.Align.is_aligned pfn (block_size order)) then
    invalid_arg "Buddy.free: misaligned block";
  if is_free_block t ~pfn ~order then invalid_arg "Buddy.free: double free";
  t.allocated_frames <- t.allocated_frames - block_size order;
  insert_and_merge t ~pfn ~order ~limit:t.frontier

let allocated_frames t = t.allocated_frames
let splits t = t.splits
let merges t = t.merges
let frontier t = t.frontier

(* Sorted (ascending) free-block pfns of one order, for tests and the
   reference-implementation equivalence harness. *)
let free_blocks t ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.free_blocks";
  Iset.elements t.free_sets.(order)

(* Internal consistency: counts and occupancy track the sets, all blocks
   aligned, free + allocated accounts for the frontier. Used by property
   tests. *)
let check_invariants t =
  Array.iteri
    (fun order fs ->
      if Iset.cardinal fs <> t.free_counts.(order) then
        failwith "buddy invariant: stale free count";
      if (t.occupancy land (1 lsl order) <> 0) <> (not (Iset.is_empty fs))
      then failwith "buddy invariant: stale occupancy bit";
      Iset.iter
        (fun pfn ->
          if not (Mm_util.Align.is_aligned pfn (block_size order)) then
            failwith "buddy invariant: misaligned free block";
          if pfn + block_size order > t.frontier then
            failwith "buddy invariant: free block beyond frontier";
          (* A free block must not coexist with its free buddy (they should
             have merged), except at max order. *)
          if order < max_order then begin
            let b = buddy_of ~pfn ~order in
            if is_free_block t ~pfn:b ~order then
              failwith "buddy invariant: unmerged buddies"
          end)
        fs)
    t.free_sets;
  let freed = ref 0 in
  Array.iteri
    (fun order n -> freed := !freed + (n * block_size order))
    t.free_counts;
  if !freed + t.allocated_frames <> t.frontier then
    failwith "buddy invariant: frame accounting mismatch"
