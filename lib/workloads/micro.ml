(* The five microbenchmarks of the paper's Table 3, each in a low- and a
   high-contention variant (§6.3): low contention gives each thread a
   private arena; high contention has all threads operate on random chunks
   of one shared region.

   Region size is 16 KiB (4 pages), as in the paper.

   Warmup: the paper measures sustained throughput, where the leaf PT
   pages (and Linux's VMA structure) already exist and the covering PT
   page of a 16 KiB transaction is a level-1 page. A cold address space
   instead puts the covering page at a shared upper level, serializing
   every thread's first operation — interesting but not what Fig 13/14
   report. The prep phase therefore materializes the leaf page tables
   (and for the unmap benchmark backs the chunks) before the measured
   phase starts. *)

module Errno = Mm_hal.Errno
module Perm = Mm_hal.Perm

type bench = Mmap | Mmap_pf | Unmap_virt | Unmap | Pf

let bench_name = function
  | Mmap -> "mmap"
  | Mmap_pf -> "mmap-PF"
  | Unmap_virt -> "unmap-virt"
  | Unmap -> "unmap"
  | Pf -> "PF"

let all_benches = [ Mmap; Mmap_pf; Unmap_virt; Unmap; Pf ]

type contention = Low | High

let contention_name = function Low -> "low" | High -> "high"

let region_len = 16 * 1024 (* as in the paper *)
let chunk_align = region_len
let page = 4096
let block = 2 * 1024 * 1024 (* one leaf PT page's coverage *)

(* Arena layout: thread-private arenas for the low-contention variant,
   one shared arena for high contention. 1 GiB-aligned so threads' PT
   paths share only upper levels. *)
let arena_base = 1 lsl 34 (* 16 GiB *)
let arena_size = 1 lsl 30 (* 1 GiB per arena *)

let private_arena ~cpu = arena_base + (cpu * arena_size)
let shared_arena = arena_base

let warm_low = 4 (* per-thread warmup operations (not measured) *)

(* Chunk schedules. Low contention: sequential chunks in the private
   arena, the first [warm_low] being warmup. High contention: random
   chunks of the shared arena. *)
let schedule ~contention ~ncpus ~iters ~seed =
  let total = warm_low + iters in
  Array.init ncpus (fun cpu ->
      let rng = Mm_util.Rng.create ~seed:(seed + (31 * cpu)) in
      Array.init total (fun i ->
          match contention with
          | Low -> private_arena ~cpu + (i * chunk_align)
          | High ->
            shared_arena
            + (Mm_util.Rng.int rng (arena_size / chunk_align) * chunk_align)))

let supported kind bench =
  match (kind, bench) with
  | System.Nros, (Pf | Unmap_virt) -> false
  | _ -> true

let timer_period = 8

(* Materialize the level-1 page tables of the shared arena: map and unmap
   one page at the end of every 2 MiB block (round-robin across CPUs). *)
let warm_shared_blocks (sys : System.t) ~cpu ~ncpus =
  let nblocks = arena_size / block in
  let b = ref cpu in
  while !b < nblocks do
    let addr = shared_arena + (!b * block) + block - page in
    ignore (Errno.ok_exn (System.mmap sys ~addr ~len:page ~perm:Perm.rw ()));
    Errno.ok_exn (System.munmap sys ~addr ~len:page);
    b := !b + ncpus
  done

(* Run one (bench, contention) cell and return the throughput. [iters]
   measured operations per thread; setup, warmup and measurement run in
   one simulation world separated by barriers ({!Runner.run_phases}). *)
let run ?(isa = Mm_hal.Isa.x86_64) ~kind ~ncpus ~bench ~contention ~iters () =
  if not (supported kind bench) then None
  else begin
    let sys = System.make ~isa kind ~ncpus in
    let chunks = schedule ~contention ~ncpus ~iters ~seed:42 in
    let tick i = if i mod timer_period = 0 then System.timer_tick sys in
    let op cpu i =
      let chunk = chunks.(cpu).(i) in
      (match bench with
      | Mmap -> (
        match contention with
        | Low ->
          ignore
            (Errno.ok_exn (System.mmap sys ~len:region_len ~perm:Perm.rw ()))
        | High ->
          ignore
            (Errno.ok_exn
               (System.mmap sys ~addr:chunk ~len:region_len ~perm:Perm.rw ())))
      | Mmap_pf ->
        let addr =
          match contention with
          | Low ->
            Errno.ok_exn (System.mmap sys ~len:region_len ~perm:Perm.rw ())
          | High ->
            Errno.ok_exn
              (System.mmap sys ~addr:chunk ~len:region_len ~perm:Perm.rw ())
        in
        (* NrOS backs pages eagerly in mmap itself. *)
        if System.demand_paging sys then
          Errno.ok_exn
            (System.touch_range sys ~addr ~len:region_len ~write:true)
      | Unmap_virt | Unmap ->
        Errno.ok_exn (System.munmap sys ~addr:chunk ~len:region_len)
      | Pf -> (
        (* High contention: the chunk may have been unmapped. *)
        match System.touch_range sys ~addr:chunk ~len:region_len ~write:true with
        | Ok () | Error _ -> ()));
      tick i
    in
    let setup () =
      match (bench, contention) with
      | (Mmap | Mmap_pf), _ -> ()
      | (Unmap_virt | Unmap | Pf), High ->
        ignore
          (Errno.ok_exn
             (System.mmap sys ~addr:shared_arena ~len:arena_size
                ~perm:Perm.rw ()))
      | (Unmap_virt | Unmap | Pf), Low ->
        for cpu = 0 to ncpus - 1 do
          ignore
            (Errno.ok_exn
               (System.mmap sys ~addr:(private_arena ~cpu) ~len:arena_size
                  ~perm:Perm.rw ()))
        done
    in
    let prep cpu =
      (match contention with
      | High -> warm_shared_blocks sys ~cpu ~ncpus
      | Low -> ());
      (* The unmap benchmark needs its chunks backed by physical pages. *)
      if bench = Unmap then
        Array.iter
          (fun chunk ->
            match
              System.touch_range sys ~addr:chunk ~len:region_len ~write:true
            with
            | Ok () | Error _ -> ())
          chunks.(cpu);
      (* Warmup operations (not measured). *)
      if contention = Low then
        for i = 0 to warm_low - 1 do
          op cpu i
        done
    in
    let measure cpu =
      for i = warm_low to warm_low + iters - 1 do
        op cpu i
      done
    in
    let cycles = Runner.run_phases ~setup ~prep ~ncpus ~measure () in
    Some (Runner.result ~ops:(ncpus * iters) ~cycles)
  end
