(* User-space allocator models (paper §6.4, Figs 17/18).

   The paper observes that dedup and psearchy are bottlenecked on the MM
   only with glibc's ptmalloc, which returns freed memory to the OS
   eagerly (munmap / trim); tcmalloc works around kernel MM scalability by
   caching freed memory in user space and rarely unmapping — at the cost of
   about 2x the resident memory (Fig 18).

   Model (per thread, as both allocators use thread-local state for the
   fast path):
   - ptmalloc: allocations >= 128 KiB map/unmap directly; small ones carve
     from 1 MiB arenas; a fully-freed arena is trimmed (munmapped)
     immediately.
   - tcmalloc: frees go to a size-classed local cache, reused by later
     allocations; memory is returned to the OS only beyond a large cache
     bound (64 MiB here), so munmap is rare. *)

module Errno = Mm_hal.Errno
module Perm = Mm_hal.Perm

type kind = Ptmalloc | Tcmalloc

let kind_name = function Ptmalloc -> "ptmalloc" | Tcmalloc -> "tcmalloc"

let mmap_threshold = 128 * 1024
let arena_size = 1024 * 1024
let tcmalloc_cache_bound = 64 * 1024 * 1024

type arena = { a_addr : int; mutable a_used : int; mutable a_live : int }

type t = {
  kind : kind;
  sys : System.t;
  mutable arena : arena option; (* current small-allocation arena *)
  mutable arenas : arena list; (* arenas with live objects *)
  cache : (int, int Queue.t) Hashtbl.t; (* tcmalloc: size -> addrs *)
  mutable cache_bytes : int;
  mutable mmap_calls : int;
  mutable munmap_calls : int;
}

let create ~kind ~sys =
  {
    kind;
    sys;
    arena = None;
    arenas = [];
    cache = Hashtbl.create 16;
    cache_bytes = 0;
    mmap_calls = 0;
    munmap_calls = 0;
  }

let size_class t size = Mm_util.Align.up size t.sys.System.page_size

let direct_map t size =
  t.mmap_calls <- t.mmap_calls + 1;
  let addr = Errno.ok_exn (System.mmap t.sys ~len:size ~perm:Perm.rw ()) in
  (* First-touch the block, as applications do. *)
  Errno.ok_exn (System.touch_range t.sys ~addr ~len:size ~write:true);
  addr

let direct_unmap t ~addr ~size =
  t.munmap_calls <- t.munmap_calls + 1;
  Errno.ok_exn (System.munmap t.sys ~addr ~len:size)

let arena_alloc t size =
  let a =
    match t.arena with
    | Some a when a.a_used + size <= arena_size -> a
    | _ ->
      t.mmap_calls <- t.mmap_calls + 1;
      let addr =
        Errno.ok_exn (System.mmap t.sys ~len:arena_size ~perm:Perm.rw ())
      in
      let a = { a_addr = addr; a_used = 0; a_live = 0 } in
      t.arena <- Some a;
      t.arenas <- a :: t.arenas;
      a
  in
  let addr = a.a_addr + a.a_used in
  a.a_used <- a.a_used + size;
  a.a_live <- a.a_live + 1;
  Errno.ok_exn (System.touch_range t.sys ~addr ~len:size ~write:true);
  addr

let arena_free t ~addr =
  match
    List.find_opt
      (fun a -> addr >= a.a_addr && addr < a.a_addr + arena_size)
      t.arenas
  with
  | None -> () (* unknown block: tolerated, as in real allocators *)
  | Some a ->
    a.a_live <- a.a_live - 1;
    if a.a_live = 0 && a.a_used >= arena_size / 2 then begin
      (* ptmalloc trims fully-freed arenas back to the OS. *)
      t.munmap_calls <- t.munmap_calls + 1;
      Errno.ok_exn (System.munmap t.sys ~addr:a.a_addr ~len:arena_size);
      t.arenas <- List.filter (fun x -> not (x == a)) t.arenas;
      match t.arena with
      | Some x when x == a -> t.arena <- None
      | Some _ | None -> ()
    end

let alloc t ~size =
  let size = size_class t size in
  match t.kind with
  | Ptmalloc ->
    if size >= mmap_threshold then direct_map t size else arena_alloc t size
  | Tcmalloc -> (
    match Hashtbl.find_opt t.cache size with
    | Some q when not (Queue.is_empty q) ->
      (* Served from the thread cache: no kernel interaction at all. *)
      let addr = Queue.pop q in
      t.cache_bytes <- t.cache_bytes - size;
      addr
    | _ -> direct_map t size)

let free t ~addr ~size =
  let size = size_class t size in
  match t.kind with
  | Ptmalloc ->
    if size >= mmap_threshold then direct_unmap t ~addr ~size
    else arena_free t ~addr
  | Tcmalloc ->
    if t.cache_bytes + size > tcmalloc_cache_bound then
      direct_unmap t ~addr ~size
    else begin
      let q =
        match Hashtbl.find_opt t.cache size with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.cache size q;
          q
      in
      Queue.push addr q;
      t.cache_bytes <- t.cache_bytes + size
    end

let mmap_calls t = t.mmap_calls
let munmap_calls t = t.munmap_calls
let cached_bytes t = t.cache_bytes
