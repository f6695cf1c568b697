(* Application workload models (paper §6.4, Figs 15-18, 21).

   Each model reproduces the *memory-management operation mix* the paper
   uses to explain its measurements:

   - jvm-threads: N threads each map and first-touch a thread stack
     (the Android app-startup pattern; Fig 16 left, lower is better);
   - metis: map-reduce over a large input; workers allocate 8 MiB chunks
     and never return them (the RadixVM paper's setup; Fig 16 right);
   - dedup: high allocation churn through a user allocator, plus a shared
     deduplication hash table that limits scaling past ~64 threads
     (Fig 17 left);
   - psearchy: file indexing — map a file chunk, read it, index into
     allocator-backed postings, unmap (Fig 17 right);
   - parsec-other: compute-bound kernels with negligible MM traffic
     (Figs 15/21) — used to show CortenMM does not hurt such programs. *)

module Errno = Mm_hal.Errno
module Perm = Mm_hal.Perm
module Engine = Mm_sim.Engine

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* -- JVM thread creation (lower is better: returns cycles) -- *)

let jvm_thread_creation ?(isa = Mm_hal.Isa.x86_64) ~kind ~nthreads () =
  let sys = System.make ~isa kind ~ncpus:nthreads in
  let stack_len = kib 512 in
  let touched = 16 (* pages of the new stack actually touched at start *) in
  let spawn_thread () =
    (* Thread spawn: map a stack, guard page, touch the hot pages, and
       run a bit of runtime initialization. *)
    let stack =
      Errno.ok_exn (System.mmap sys ~len:stack_len ~perm:Perm.rw ())
    in
    if System.has_mprotect sys then
      Errno.ok_exn
        (System.mprotect sys ~addr:stack ~len:sys.System.page_size
           ~perm:Perm.none);
    if System.demand_paging sys then
      Errno.ok_exn
        (System.touch_range sys
           ~addr:(stack + sys.System.page_size)
           ~len:(touched * sys.System.page_size)
           ~write:true);
    Engine.tick 40_000 (* JVM-side thread bookkeeping *);
    stack
  in
  (* The benchmark measures thread creation in a *running* JVM: the prep
     phase creates and joins one thread per CPU so the address-space
     structure (PT subtrees, VMAs) exists, as it would after JVM startup. *)
  Runner.run_phases ~ncpus:nthreads
    ~prep:(fun cpu ->
      System.warm sys ~cpu;
      let stack = spawn_thread () in
      Errno.ok_exn (System.munmap sys ~addr:stack ~len:stack_len))
    ~measure:(fun _ -> ignore (spawn_thread ()))
    ()

(* -- metis map-reduce (higher is better: returns Runner.result) -- *)

let metis ?(isa = Mm_hal.Isa.x86_64) ~kind ~ncpus ?(chunks_per_thread = 6) () =
  let sys = System.make ~isa kind ~ncpus in
  (* 1.6 GiB input file, modelled as a pre-mapped shared region each
     worker scans (read faults on first touch). *)
  let input_len = mib 64 in
  let input = ref 0 in
  let chunk_len = mib 8 in
  let pages_touched_per_chunk = 512 in
  let ps = sys.System.page_size in
  let slice = input_len / ncpus in
  (* Chunk addresses, for the shuffle phase (reducers read every mapper's
     output, which is what makes RadixVM replicate page tables). *)
  let all_chunks = Array.make (ncpus * chunks_per_thread) 0 in
  let cycles =
    Runner.run_phases ~ncpus
      ~setup:(fun () ->
        input := Errno.ok_exn (System.mmap sys ~len:input_len ~perm:Perm.r ()))
      ~prep:(fun cpu -> System.warm sys ~cpu)
      ()
      ~measure:(fun cpu ->
        (* Map phase: scan our slice of the input. *)
        let my_lo = !input + (cpu * slice) in
        let step = 8 * ps in
        let rec scan v =
          if v < my_lo + slice then begin
            (if System.demand_paging sys then
               match System.touch sys ~vaddr:v ~write:false with
               | Ok () | Error _ -> ());
            Engine.tick 2_000 (* hashing the records in these pages *);
            scan (v + step)
          end
        in
        scan my_lo;
        (* Map-output phase: allocate 8 MiB result chunks, never freed. *)
        for k = 0 to chunks_per_thread - 1 do
          let addr =
            Errno.ok_exn (System.mmap sys ~len:chunk_len ~perm:Perm.rw ())
          in
          all_chunks.((cpu * chunks_per_thread) + k) <- addr;
          if System.demand_paging sys then
            for p = 0 to pages_touched_per_chunk - 1 do
              Errno.ok_exn
                (System.touch sys
                   ~vaddr:(addr + (p * (chunk_len / pages_touched_per_chunk)))
                   ~write:true)
            done;
          Engine.tick 30_000 (* emitting intermediate pairs *)
        done;
        (* Shuffle/reduce phase: read a few pages of every other worker's
           chunks. Cross-CPU reads are why RadixVM must replicate these
           mappings into every core's private page table (Fig 22). *)
        Array.iter
          (fun addr ->
            if addr <> 0 then begin
              for p = 0 to 7 do
                match
                  System.touch sys ~vaddr:(addr + (p * 16 * ps)) ~write:false
                with
                | Ok () | Error _ -> ()
              done;
              Engine.tick 4_000 (* merging *)
            end)
          all_chunks)
  in
  (Runner.result ~ops:(ncpus * chunks_per_thread) ~cycles, sys)

(* -- dedup (returns Runner.result) -- *)

let dedup ?(isa = Mm_hal.Isa.x86_64) ~kind ~alloc_kind ~ncpus
    ?(iters_per_thread = 40) () =
  let sys = System.make ~isa kind ~ncpus in
  (* The shared deduplication hash table: a fixed set of bucket lines;
     beyond ~64 threads the buckets themselves become the bottleneck
     ("the application itself contributes to most of the contention"). *)
  let nbuckets = 64 in
  let buckets = Array.init nbuckets (fun _ -> Engine.Line.make ()) in
  let cycles =
    Runner.run_phases ~ncpus
      ~prep:(fun cpu -> System.warm sys ~cpu)
      ()
      ~measure:(fun cpu ->
        let allocator = Alloc_model.create ~kind:alloc_kind ~sys in
        let rng = Mm_util.Rng.create ~seed:(1000 + cpu) in
        for i = 0 to iters_per_thread - 1 do
          (* One pipeline stage: read a block, chunk it, compress. *)
          let data = Alloc_model.alloc allocator ~size:(kib 256) in
          let buf = Alloc_model.alloc allocator ~size:(kib 64) in
          let small = Alloc_model.alloc allocator ~size:(kib 8) in
          Engine.tick 120_000 (* chunking + SHA1 + compression *);
          (* Insert the chunk digests into the shared table. *)
          for _ = 1 to 4 do
            Engine.Line.rmw buckets.(Mm_util.Rng.int rng nbuckets)
          done;
          Alloc_model.free allocator ~addr:small ~size:(kib 8);
          Alloc_model.free allocator ~addr:buf ~size:(kib 64);
          Alloc_model.free allocator ~addr:data ~size:(kib 256);
          if i mod 8 = 0 then System.timer_tick sys
        done)
  in
  (Runner.result ~ops:(ncpus * iters_per_thread) ~cycles, sys)

(* -- psearchy (returns Runner.result) -- *)

let psearchy ?(isa = Mm_hal.Isa.x86_64) ~kind ~alloc_kind ~ncpus
    ?(files_per_thread = 25) () =
  let sys = System.make ~isa kind ~ncpus in
  let file_chunk = kib 256 in
  let ps = sys.System.page_size in
  let cycles =
    Runner.run_phases ~ncpus
      ~prep:(fun cpu -> System.warm sys ~cpu)
      ()
      ~measure:(fun _cpu ->
        let allocator = Alloc_model.create ~kind:alloc_kind ~sys in
        for i = 0 to files_per_thread - 1 do
          (* Map a file chunk, read every page, index the words. *)
          let addr =
            Errno.ok_exn (System.mmap sys ~len:file_chunk ~perm:Perm.r ())
          in
          (if System.demand_paging sys then
             let rec go v =
               if v < addr + file_chunk then begin
                 Errno.ok_exn (System.touch sys ~vaddr:v ~write:false);
                 Engine.tick 1_500 (* tokenizing this page *);
                 go (v + ps)
               end
             in
             go addr);
          (* Postings lists through the user allocator. *)
          let postings = Alloc_model.alloc allocator ~size:(kib 192) in
          Engine.tick 25_000 (* sorting/merging *);
          Alloc_model.free allocator ~addr:postings ~size:(kib 192);
          Errno.ok_exn (System.munmap sys ~addr ~len:file_chunk);
          if i mod 8 = 0 then System.timer_tick sys
        done)
  in
  (Runner.result ~ops:(ncpus * files_per_thread) ~cycles, sys)

(* -- PARSEC compute-bound kernels (Figs 15/21) --

   Each is compute with a modest resident set and negligible MM traffic;
   the per-benchmark parameters vary the compute/memory mix. *)

type parsec = {
  p_name : string;
  work_cycles : int; (* per work item *)
  items : int; (* per thread *)
  resident : int; (* bytes touched during setup *)
  reuse_pages : int; (* pages re-touched per item *)
}

let parsec_others =
  [
    { p_name = "blackscholes"; work_cycles = 60_000; items = 40; resident = mib 2; reuse_pages = 4 };
    { p_name = "bodytrack"; work_cycles = 90_000; items = 30; resident = mib 4; reuse_pages = 8 };
    { p_name = "canneal"; work_cycles = 50_000; items = 40; resident = mib 8; reuse_pages = 16 };
    { p_name = "ferret"; work_cycles = 110_000; items = 25; resident = mib 4; reuse_pages = 8 };
    { p_name = "fluidanimate"; work_cycles = 70_000; items = 35; resident = mib 4; reuse_pages = 8 };
    { p_name = "freqmine"; work_cycles = 100_000; items = 30; resident = mib 8; reuse_pages = 8 };
    { p_name = "streamcluster"; work_cycles = 80_000; items = 35; resident = mib 2; reuse_pages = 4 };
    { p_name = "swaptions"; work_cycles = 120_000; items = 25; resident = mib 1; reuse_pages = 2 };
    { p_name = "vips"; work_cycles = 65_000; items = 40; resident = mib 4; reuse_pages = 8 };
    { p_name = "x264"; work_cycles = 95_000; items = 30; resident = mib 8; reuse_pages = 8 };
  ]

let run_parsec ?(isa = Mm_hal.Isa.x86_64) ~kind ~ncpus (p : parsec) =
  let sys = System.make ~isa kind ~ncpus in
  let ps = sys.System.page_size in
  let base = ref 0 in
  let setup () =
    base :=
      Errno.ok_exn
        (System.mmap sys ~len:(p.resident * ncpus) ~perm:Perm.rw ());
    if System.demand_paging sys then begin
      (* Touch a fraction of the resident set up front. *)
      let step = 8 * ps in
      let rec go v =
        if v < !base + min (p.resident * ncpus) (mib 4) then begin
          Errno.ok_exn (System.touch sys ~vaddr:v ~write:true);
          go (v + step)
        end
      in
      go !base
    end
  in
  let cycles =
    Runner.run_phases ~ncpus ~setup
      ~prep:(fun cpu ->
        System.warm sys ~cpu;
        if System.demand_paging sys then
          match
            System.touch sys ~vaddr:(!base + (cpu * p.resident)) ~write:true
          with
          | Ok () | Error _ -> ())
      ()
      ~measure:(fun cpu ->
        let my = !base + (cpu * p.resident) in
        let rng = Mm_util.Rng.create ~seed:(7 + cpu) in
        for _ = 1 to p.items do
          Engine.tick p.work_cycles;
          for _ = 1 to p.reuse_pages do
            let off = Mm_util.Rng.int rng (p.resident / ps) * ps in
            match System.touch sys ~vaddr:(my + off) ~write:true with
            | Ok () | Error _ -> ()
          done
        done)
  in
  Runner.result ~ops:(ncpus * p.items) ~cycles
