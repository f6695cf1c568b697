(* Simulated physical memory: per-NUMA-node buddy allocators plus lazily
   materialized page descriptors, with per-kind accounting for the
   memory-overhead experiments (paper Fig 18 and Fig 22).

   NUMA: the pfn space is striped across nodes — node [n] owns
   [n*node_span, (n+1)*node_span). Single-node machines (the default)
   behave exactly as before.

   The frame table is a chunked direct map: pfn -> (chunk, slot) with
   lazily materialized chunks, so the sparse 2^40-pfn space costs nothing
   until touched while the fault path's descriptor lookup is an array
   index instead of a hash probe. A one-entry chunk cache covers the
   spatial locality of buddy-allocated pfns. Descriptors are still
   created on first access, so creation order (and the deterministic lock
   ids each descriptor reserves) is unchanged. A slot whose descriptor is
   not yet created holds the shared [unmade] sentinel rather than an
   option, so a created descriptor is one pointer away from its chunk. *)

let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1

type t = {
  buddies : Buddy.t array; (* one per NUMA node *)
  node_span : int; (* pfns per node *)
  chunks : (int, Frame.t array) Hashtbl.t; (* chunk index -> slots *)
  mutable cached_cidx : int; (* last chunk touched, -1 for none *)
  mutable cached_chunk : Frame.t array;
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

let nkinds = 5

(* Marks a frame-table slot whose descriptor is not yet created. Built
   directly, not by [Frame.make], so it reserves no lock ids; [frame]
   never returns it. *)
let unmade : Frame.t =
  {
    Frame.pfn = -1;
    kind = Frame.Free;
    order = 0;
    lock_id = -1;
    pt_lock = None;
    pt_rwlock = None;
    line = Mm_sim.Engine.Line.make ();
    stale = false;
    map_count = 0;
    wired = false;
    contents = 0;
  }

let create ?(nframes = 1 lsl 40) ?(page_size = 4096) ?(numa_nodes = 1) () =
  if numa_nodes < 1 then invalid_arg "Phys.create: numa_nodes";
  let node_span = nframes / numa_nodes in
  {
    buddies = Array.init numa_nodes (fun _ -> Buddy.create ~nframes:node_span);
    node_span;
    chunks = Hashtbl.create 64;
    cached_cidx = -1;
    cached_chunk = [||];
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
        let c = Array.make (chunk_mask + 1) unmade in
        Hashtbl.replace t.chunks cidx c;
        c
    in
    t.cached_cidx <- cidx;
    t.cached_chunk <- c;
    c
  end

let frame t pfn =
  let c = chunk t (pfn lsr chunk_bits) in
  let slot = pfn land chunk_mask in
  let f = c.(slot) in
  if f != unmade then f
  else begin
    let f = Frame.make ~pfn in
    c.(slot) <- f;
    f
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

let alloc t ~kind ?(order = 0) ?(node = 0) () =
  if node < 0 || node >= numa_nodes t then invalid_arg "Phys.alloc: node";
  let splits0 = Buddy.splits t.buddies.(node) in
  let pfn = (node * t.node_span) + Buddy.alloc t.buddies.(node) ~order in
  note_alloc t ~node ~order ~splits0 ~pfn;
  let n = 1 lsl order in
  t.counts.(kind_index kind) <- t.counts.(kind_index kind) + n;
  (let data =
     t.counts.(kind_index Frame.Anon) + t.counts.(kind_index Frame.File_page)
   in
   if data > t.peak_data_frames then t.peak_data_frames <- data);
  for i = 0 to n - 1 do
    let f = frame t (pfn + i) in
    f.Frame.kind <- kind;
    f.Frame.order <- (if i = 0 then order else 0);
    f.Frame.stale <- false;
    f.Frame.map_count <- 0;
    f.Frame.wired <- false;
    f.Frame.contents <- 0
  done;
  frame t pfn

let free t (f : Frame.t) =
  if f.Frame.kind = Frame.Free then
    invalid_arg "Phys.free: frame already free";
  let order = f.Frame.order in
  let n = 1 lsl order in
  t.counts.(kind_index f.Frame.kind) <- t.counts.(kind_index f.Frame.kind) - n;
  for i = 0 to n - 1 do
    let fi = frame t (f.Frame.pfn + i) in
    fi.Frame.kind <- Frame.Free
  done;
  let node = node_of_pfn t f.Frame.pfn in
  let merges0 = Buddy.merges t.buddies.(node) in
  Buddy.free t.buddies.(node) ~pfn:(f.Frame.pfn - (node * t.node_span)) ~order;
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
