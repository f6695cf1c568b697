(* Simulated physical memory: per-NUMA-node buddy allocators plus a flat
   frame table of page descriptors, with per-kind accounting for the
   memory-overhead experiments (paper Fig 18 and Fig 22).

   NUMA: the pfn space is striped across nodes — node [n] owns
   [n*node_span, (n+1)*node_span). Single-node machines (the default)
   behave exactly as before.

   The frame table. CortenMM borrows Linux's one descriptor per physical
   frame (paper §4.5, "struct page"), which Linux stores in a flat array
   indexed by pfn. Here the array is chunked: pfn -> (chunk, row), with
   1024-frame chunks made on first touch, so the sparse 2^40-pfn space
   costs nothing until touched, and a one-entry chunk cache covers the
   spatial locality of buddy-allocated pfns. A chunk keeps every
   descriptor field of its frames in one packed [Bytes.t], which the GC
   never scans, 20 bytes a row:

     bytes 0-7    contents token (int64), standing in for the page's data
     bytes 8-11   map count (int32), used by COW (Fig 8 L29)
     byte  12     kind (bits 0-2), made (0x08), stale (0x10), wired (0x20)
     byte  13     buddy order the frame was allocated with
     bytes 14-19  lock-id base (uint16 at 14, then uint32 at 16)

   The stale bit is what CortenMM_adv sets on unmapped PT pages (Fig
   6/7); wired marks an mlock'd page the page-out daemon must never
   reclaim.

   A row is made by its pfn's first touch, through any accessor. That
   touch reserves two lock ids, rwlock [n] then mutex [n+1]: traces and
   contention reports name unnamed PT-page locks by id, so ids follow
   first-touch order, not which frames became page tables. A frame's
   cache line (charged for coherence traffic on its contents) and its
   two PT-page locks (CortenMM_rw's BRAVO-pfqlock, and the spin lock
   CortenMM_adv and Linux take) are built on first use, as Linux builds
   its split PT lock only for page-table pages, into per-chunk arrays
   that the chunk's first such use allocates. They are kept across free
   and reuse: their state is part of simulated time. *)

let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let row_bytes = 20

(* Byte offsets within a row, and the flag byte's bits. *)
let off_maps = 8
let off_flags = 12
let off_order = 13
let off_lock_id = 14
let kind_bits = 0x07
let made = 0x08
let stale_bit = 0x10
let wired_bit = 0x20

type chunk = {
  rows : Bytes.t;
  mutable lines : Mm_sim.Engine.Line.t array; (* [||] until one is built *)
  mutable locks : Mm_sim.Mutex_s.t array; (* [||] until one is built *)
  mutable rwlocks : Mm_sim.Rwlock_s.t array; (* [||] until one is built *)
}

type t = {
  buddies : Buddy.t array; (* one per NUMA node *)
  node_span : int; (* pfns per node *)
  chunks : (int, chunk) Hashtbl.t; (* chunk index -> chunk *)
  mutable cached_cidx : int; (* last chunk touched, -1 for none *)
  mutable cached_chunk : chunk;
  page_size : int;
  mutable counts : int array; (* frames per Frame.kind *)
  mutable extra_bytes : int array; (* sub-page kernel allocations per kind *)
  mutable peak_data_frames : int; (* high-water mark of anon+file frames *)
}

let kind_index : Frame.kind -> int = function
  | Frame.Free -> 0
  | Frame.Pt_page -> 1
  | Frame.Anon -> 2
  | Frame.File_page -> 3
  | Frame.Kernel -> 4

let kind_of_index = function
  | 0 -> Frame.Free
  | 1 -> Frame.Pt_page
  | 2 -> Frame.Anon
  | 3 -> Frame.File_page
  | _ -> Frame.Kernel

let nkinds = 5

(* The slot arrays' marks for a line or lock not yet built. They reserve
   no lock ids, and no accessor returns them. *)
let no_line = Mm_sim.Engine.Line.make ()
let no_lock = Mm_sim.Mutex_s.make ~id:(-1) ()
let no_rwlock = Mm_sim.Rwlock_s.make ~id:(-1) ()

let no_chunk = { rows = Bytes.empty; lines = [||]; locks = [||]; rwlocks = [||] }

let create ?(nframes = 1 lsl 40) ?(page_size = 4096) ?(numa_nodes = 1) () =
  if numa_nodes < 1 then invalid_arg "Phys.create: numa_nodes";
  let node_span = nframes / numa_nodes in
  {
    buddies = Array.init numa_nodes (fun _ -> Buddy.create ~nframes:node_span);
    node_span;
    chunks = Hashtbl.create 64;
    cached_cidx = -1;
    cached_chunk = no_chunk;
    page_size;
    counts = Array.make nkinds 0;
    extra_bytes = Array.make nkinds 0;
    peak_data_frames = 0;
  }

let numa_nodes t = Array.length t.buddies

let node_of_pfn t pfn = min (numa_nodes t - 1) (pfn / t.node_span)

let chunk t cidx =
  if cidx = t.cached_cidx then t.cached_chunk
  else begin
    let c =
      match Hashtbl.find_opt t.chunks cidx with
      | Some c -> c
      | None ->
        let c =
          {
            rows = Bytes.make ((chunk_mask + 1) * row_bytes) '\000';
            lines = [||];
            locks = [||];
            rwlocks = [||];
          }
        in
        Hashtbl.replace t.chunks cidx c;
        c
    in
    t.cached_cidx <- cidx;
    t.cached_chunk <- c;
    c
  end

let row pfn = (pfn land chunk_mask) * row_bytes

(* The first touch of a row: reserve its lock ids, rwlock [id] and
   mutex [id + 1], in one call. A fresh row's other bytes are 0: a free
   frame of order 0, unmapped, clean and unwired. *)
let make_row c o =
  let id = Mm_obs.Contention.fresh_ids 2 in
  Bytes.set_uint8 c.rows (o + off_flags) made;
  Bytes.set_uint16_le c.rows (o + off_lock_id) (id land 0xffff);
  Bytes.set_int32_le c.rows (o + off_lock_id + 2) (Int32.of_int (id lsr 16))

(* The chunk holding [pfn]'s row, with the row made. *)
let touch t pfn =
  let c = chunk t (pfn lsr chunk_bits) and o = row pfn in
  if Bytes.get_uint8 c.rows (o + off_flags) land made = 0 then make_row c o;
  c

let frame t pfn =
  ignore (touch t pfn : chunk);
  Frame.of_pfn pfn

let flags t (f : Frame.t) =
  Bytes.get_uint8 (touch t (f :> int)).rows (row (f :> int) + off_flags)

let set_flag t (f : Frame.t) bit v =
  let c = touch t (f :> int) and o = row (f :> int) + off_flags in
  let b = Bytes.get_uint8 c.rows o in
  Bytes.set_uint8 c.rows o (if v then b lor bit else b land lnot bit)

let kind t f = kind_of_index (flags t f land kind_bits)
let stale t f = flags t f land stale_bit <> 0
let set_stale t f v = set_flag t f stale_bit v
let wired t f = flags t f land wired_bit <> 0
let set_wired t f v = set_flag t f wired_bit v

let order t (f : Frame.t) =
  Bytes.get_uint8 (touch t (f :> int)).rows (row (f :> int) + off_order)

let get_maps c o = Int32.to_int (Bytes.get_int32_le c.rows (o + off_maps))
let set_maps c o n = Bytes.set_int32_le c.rows (o + off_maps) (Int32.of_int n)
let map_count t (f : Frame.t) = get_maps (touch t (f :> int)) (row (f :> int))

let set_map_count t (f : Frame.t) n =
  set_maps (touch t (f :> int)) (row (f :> int)) n

let add_map t (f : Frame.t) =
  let c = touch t (f :> int) and o = row (f :> int) in
  set_maps c o (get_maps c o + 1)

let drop_map t (f : Frame.t) =
  let c = touch t (f :> int) and o = row (f :> int) in
  let n = get_maps c o - 1 in
  set_maps c o n;
  n = 0
  && Bytes.get_uint8 c.rows (o + off_flags) land kind_bits
     = kind_index Frame.Anon

let contents t (f : Frame.t) =
  Int64.to_int (Bytes.get_int64_le (touch t (f :> int)).rows (row (f :> int)))

let set_contents t (f : Frame.t) v =
  Bytes.set_int64_le (touch t (f :> int)).rows (row (f :> int)) (Int64.of_int v)

let lock_id c o =
  Bytes.get_uint16_le c.rows (o + off_lock_id)
  lor ((Int32.to_int (Bytes.get_int32_le c.rows (o + off_lock_id + 2))
        land 0xffff_ffff)
       lsl 16)

let line t (f : Frame.t) =
  let c = touch t (f :> int) and s = (f :> int) land chunk_mask in
  if Array.length c.lines = 0 then
    c.lines <- Array.make (chunk_mask + 1) no_line;
  let l = c.lines.(s) in
  if l != no_line then l
  else begin
    let l = Mm_sim.Engine.Line.make () in
    c.lines.(s) <- l;
    l
  end

let lock t (f : Frame.t) =
  let c = touch t (f :> int) and s = (f :> int) land chunk_mask in
  if Array.length c.locks = 0 then
    c.locks <- Array.make (chunk_mask + 1) no_lock;
  let l = c.locks.(s) in
  if l != no_lock then l
  else begin
    let l = Mm_sim.Mutex_s.make ~id:(lock_id c (row (f :> int)) + 1) () in
    c.locks.(s) <- l;
    l
  end

let rwlock t (f : Frame.t) =
  let c = touch t (f :> int) and s = (f :> int) land chunk_mask in
  if Array.length c.rwlocks = 0 then
    c.rwlocks <- Array.make (chunk_mask + 1) no_rwlock;
  let l = c.rwlocks.(s) in
  if l != no_rwlock then l
  else begin
    let l = Mm_sim.Rwlock_s.make ~id:(lock_id c (row (f :> int))) () in
    c.rwlocks.(s) <- l;
    l
  end

(* Allocator observability: splits/merges deltas around the buddy call,
   recorded only while the domain has a subscriber so unobserved runs
   never touch the metrics registry (the zero-perturbation rule). *)
let note_alloc t ~node ~order ~splits0 ~pfn =
  if Mm_obs.Trace.on () then begin
    Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "phys.frame_allocs");
    Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "phys.alloc_order") order;
    let d = Buddy.splits t.buddies.(node) - splits0 in
    if d > 0 then Mm_obs.Metrics.add (Mm_obs.Metrics.counter "buddy.splits") d;
    Mm_sim.Engine.obs
      (Mm_obs.Event.Frame_allocated { pfn; pages = 1 lsl order })
  end

let note_free t ~node ~merges0 =
  if Mm_obs.Trace.on () then begin
    Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "phys.frame_frees");
    let d = Buddy.merges t.buddies.(node) - merges0 in
    if d > 0 then Mm_obs.Metrics.add (Mm_obs.Metrics.counter "buddy.merges") d
  end

(* Each pfn of the block is touched in ascending order, and its row is
   reset to a fresh frame of [kind]; the head keeps the block's order.
   The chunk is resolved once per chunk the block spans. *)
let alloc t ~kind ?(order = 0) ?(node = 0) () =
  if node < 0 || node >= numa_nodes t then invalid_arg "Phys.alloc: node";
  let splits0 = Buddy.splits t.buddies.(node) in
  let pfn = (node * t.node_span) + Buddy.alloc t.buddies.(node) ~order in
  note_alloc t ~node ~order ~splits0 ~pfn;
  let n = 1 lsl order and k = kind_index kind in
  t.counts.(k) <- t.counts.(k) + n;
  (let data =
     t.counts.(kind_index Frame.Anon) + t.counts.(kind_index Frame.File_page)
   in
   if data > t.peak_data_frames then t.peak_data_frames <- data);
  let c = ref no_chunk in
  for p = pfn to pfn + n - 1 do
    if p = pfn || p land chunk_mask = 0 then c := chunk t (p lsr chunk_bits);
    let rows = !c.rows and o = row p in
    if Bytes.get_uint8 rows (o + off_flags) land made = 0 then make_row !c o;
    Bytes.set_int64_le rows o 0L;
    Bytes.set_int32_le rows (o + off_maps) 0l;
    Bytes.set_uint8 rows (o + off_flags) (made lor k);
    Bytes.set_uint8 rows (o + off_order) (if p = pfn then order else 0)
  done;
  Frame.of_pfn pfn

let free t (f : Frame.t) =
  let pfn = (f :> int) in
  let c = touch t pfn and o = row pfn in
  let k = Bytes.get_uint8 c.rows (o + off_flags) land kind_bits in
  if k = kind_index Frame.Free then invalid_arg "Phys.free: frame already free";
  let order = Bytes.get_uint8 c.rows (o + off_order) in
  let n = 1 lsl order in
  t.counts.(k) <- t.counts.(k) - n;
  let c = ref c in
  for p = pfn to pfn + n - 1 do
    if p land chunk_mask = 0 && p <> pfn then c := chunk t (p lsr chunk_bits);
    let o = row p + off_flags in
    Bytes.set_uint8 !c.rows o
      (Bytes.get_uint8 !c.rows o land lnot kind_bits)
  done;
  let node = node_of_pfn t pfn in
  let merges0 = Buddy.merges t.buddies.(node) in
  Buddy.free t.buddies.(node) ~pfn:(pfn - (node * t.node_span)) ~order;
  note_free t ~node ~merges0

(* Sub-page kernel allocations (metadata arrays, VMA structs…) tracked for
   the overhead accounting; a slab allocator is modelled by byte counts. *)
let kernel_alloc_bytes t ~bytes =
  if bytes < 0 then invalid_arg "Phys.kernel_alloc_bytes";
  t.extra_bytes.(kind_index Frame.Kernel) <-
    t.extra_bytes.(kind_index Frame.Kernel) + bytes

let kernel_free_bytes t ~bytes =
  t.extra_bytes.(kind_index Frame.Kernel) <-
    t.extra_bytes.(kind_index Frame.Kernel) - bytes

type usage = {
  pt_bytes : int;
  anon_bytes : int;
  file_bytes : int;
  kernel_bytes : int; (* whole kernel frames + sub-page allocations *)
  total_bytes : int;
}

let usage t =
  let frames_of k = t.counts.(kind_index k) * t.page_size in
  let pt_bytes = frames_of Frame.Pt_page in
  let anon_bytes = frames_of Frame.Anon in
  let file_bytes = frames_of Frame.File_page in
  let kernel_bytes =
    frames_of Frame.Kernel + t.extra_bytes.(kind_index Frame.Kernel)
  in
  {
    pt_bytes;
    anon_bytes;
    file_bytes;
    kernel_bytes;
    total_bytes = pt_bytes + anon_bytes + file_bytes + kernel_bytes;
  }

let allocated_frames t =
  Array.fold_left (fun acc b -> acc + Buddy.allocated_frames b) 0 t.buddies

let peak_data_bytes t = t.peak_data_frames * t.page_size

(* Resident user data (anon + page-cache) frames right now, not the
   peak; the page-out daemon reports it when a reclaim pass starts. *)
let data_frames t =
  t.counts.(kind_index Frame.Anon) + t.counts.(kind_index Frame.File_page)
