(* Tests for the physical memory substrate: the buddy allocator (splits,
   merges, alignment, double-free detection, invariant preservation under
   random workloads), frame descriptors, NUMA striping and accounting. *)

module Buddy = Mm_phys.Buddy
module Phys = Mm_phys.Phys
module Frame = Mm_phys.Frame

let check = Alcotest.check

(* -- Buddy basics -- *)

let test_alloc_distinct () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  let c = Buddy.alloc b ~order:0 in
  check Alcotest.bool "distinct" true (a <> c);
  check Alcotest.int "two allocated" 2 (Buddy.allocated_frames b);
  Buddy.check_invariants b

let test_alignment () =
  let b = Buddy.create ~nframes:(1 lsl 16) in
  let _ = Buddy.alloc b ~order:0 in
  let big = Buddy.alloc b ~order:6 in
  check Alcotest.bool "order-6 block aligned" true
    (Mm_util.Align.is_aligned big 64);
  let huge = Buddy.alloc b ~order:9 in
  check Alcotest.bool "order-9 block aligned" true
    (Mm_util.Align.is_aligned huge 512);
  Buddy.check_invariants b

let test_split_and_merge () =
  let b = Buddy.create ~nframes:1024 in
  (* Allocate an order-3 block, free it as... no: allocate two order-0
     from a split, free both, the buddies must merge back. *)
  let a = Buddy.alloc b ~order:3 in
  Buddy.free b ~pfn:a ~order:3;
  Buddy.check_invariants b;
  let x = Buddy.alloc b ~order:0 in
  let y = Buddy.alloc b ~order:0 in
  check Alcotest.bool "buddies from one split" true (x lxor y = 1 || x <> y);
  Buddy.free b ~pfn:x ~order:0;
  Buddy.free b ~pfn:y ~order:0;
  Buddy.check_invariants b;
  check Alcotest.bool "merges recorded" true (Buddy.merges b > 0);
  check Alcotest.int "nothing allocated" 0 (Buddy.allocated_frames b)

let test_double_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  Buddy.free b ~pfn:a ~order:0;
  Alcotest.(check bool)
    "double free raises" true
    (try
       Buddy.free b ~pfn:a ~order:0;
       false
     with Invalid_argument _ -> true)

let test_misaligned_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let _ = Buddy.alloc b ~order:2 in
  Alcotest.(check bool)
    "misaligned free raises" true
    (try
       Buddy.free b ~pfn:1 ~order:2;
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let b = Buddy.create ~nframes:16 in
  let _ = Buddy.alloc b ~order:4 in
  Alcotest.(check bool)
    "exhaustion raises" true
    (try
       ignore (Buddy.alloc b ~order:0);
       false
     with Buddy.Out_of_memory -> true)

let buddy_stress_prop =
  QCheck.Test.make ~name:"buddy invariants under random alloc/free" ~count:60
    QCheck.(
      pair small_int
        (list_of_size (QCheck.Gen.return 200) (int_bound 3)))
    (fun (seed, orders) ->
      let rng = Mm_util.Rng.create ~seed in
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let live = ref [] in
      List.iter
        (fun order ->
          if Mm_util.Rng.bool rng || !live = [] then begin
            let pfn = Buddy.alloc b ~order in
            live := (pfn, order) :: !live
          end
          else begin
            let i = Mm_util.Rng.int rng (List.length !live) in
            let pfn, order = List.nth !live i in
            live := List.filteri (fun j _ -> j <> i) !live;
            Buddy.free b ~pfn ~order
          end;
          Buddy.check_invariants b)
        orders;
      (* Allocated count equals the live set's frame total. *)
      Buddy.allocated_frames b
      = List.fold_left (fun a (_, o) -> a + (1 lsl o)) 0 !live)

let buddy_no_overlap_prop =
  QCheck.Test.make ~name:"buddy never hands out overlapping blocks" ~count:40
    QCheck.(list_of_size (QCheck.Gen.return 100) (int_bound 4))
    (fun orders ->
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let claimed = Hashtbl.create 256 in
      List.for_all
        (fun order ->
          let pfn = Buddy.alloc b ~order in
          let ok = ref true in
          for i = pfn to pfn + (1 lsl order) - 1 do
            if Hashtbl.mem claimed i then ok := false;
            Hashtbl.replace claimed i ()
          done;
          !ok)
        orders)

(* -- Reference-implementation equivalence --

   A deliberately naive buddy (unsorted association lists, smallest-pfn pop
   by linear scan) implementing the same split/merge/frontier algorithm.
   The optimized allocator must produce identical pfn sequences and
   identical per-order free-block sets on any alloc/free trace. *)

module Ref_buddy = struct
  let max_order = 10

  type t = { nframes : int; mutable frontier : int; free : int list array }

  let create ~nframes =
    { nframes; frontier = 0; free = Array.make (max_order + 1) [] }

  let block_size order = 1 lsl order
  let buddy_of ~pfn ~order = pfn lxor block_size order
  let is_free t ~pfn ~order = List.mem pfn t.free.(order)

  let remove t ~pfn ~order =
    t.free.(order) <- List.filter (fun p -> p <> pfn) t.free.(order)

  let add t ~pfn ~order = t.free.(order) <- pfn :: t.free.(order)

  let pop_min t ~order =
    match t.free.(order) with
    | [] -> None
    | l ->
      let m = List.fold_left min max_int l in
      remove t ~pfn:m ~order;
      Some m

  let rec any_free_above t ~order =
    order < max_order
    && (t.free.(order + 1) <> [] || any_free_above t ~order:(order + 1))

  let rec insert_and_merge t ~pfn ~order ~limit =
    let b = buddy_of ~pfn ~order in
    if
      order < max_order
      && b + block_size order <= limit
      && is_free t ~pfn:b ~order
    then begin
      remove t ~pfn:b ~order;
      insert_and_merge t ~pfn:(min pfn b) ~order:(order + 1) ~limit
    end
    else add t ~pfn ~order

  let release_range t ~lo ~hi =
    let lo = ref lo in
    while !lo < hi do
      let rec align o =
        if
          o < max_order
          && Mm_util.Align.is_aligned !lo (block_size (o + 1))
          && !lo + block_size (o + 1) <= hi
        then align (o + 1)
        else o
      in
      let order = align 0 in
      insert_and_merge t ~pfn:!lo ~order ~limit:hi;
      lo := !lo + block_size order
    done

  let rec alloc t ~order =
    if order > max_order then failwith "ref buddy: out of memory";
    match pop_min t ~order with
    | Some pfn -> pfn
    | None ->
      if not (any_free_above t ~order) then begin
        let pfn = Mm_util.Align.up t.frontier (block_size order) in
        if pfn + block_size order > t.nframes then
          failwith "ref buddy: out of memory";
        release_range t ~lo:t.frontier ~hi:pfn;
        t.frontier <- pfn + block_size order;
        pfn
      end
      else begin
        let big = alloc t ~order:(order + 1) in
        add t ~pfn:(big + block_size order) ~order;
        big
      end

  let free t ~pfn ~order = insert_and_merge t ~pfn ~order ~limit:t.frontier
  let free_blocks t ~order = List.sort compare t.free.(order)
end

(* One seeded random trace, compared step by step: every alloc must return
   the same pfn, and after every operation the full free-list state (all
   orders) must agree, while the optimized allocator's internal invariants
   hold. *)
let run_equivalence_trace ~seed ~steps =
  let nframes = 1 lsl 14 in
  let b = Buddy.create ~nframes in
  let r = Ref_buddy.create ~nframes in
  let rng = Mm_util.Rng.create ~seed in
  let live = ref [] in
  let compare_state step =
    check Alcotest.int
      (Printf.sprintf "step %d: frontier" step)
      r.Ref_buddy.frontier (Buddy.frontier b);
    for order = 0 to 10 do
      check
        Alcotest.(list int)
        (Printf.sprintf "step %d: free blocks of order %d" step order)
        (Ref_buddy.free_blocks r ~order)
        (Buddy.free_blocks b ~order)
    done;
    Buddy.check_invariants b
  in
  for step = 1 to steps do
    if Mm_util.Rng.bool rng || !live = [] then begin
      let order = Mm_util.Rng.int rng 4 in
      let pfn = Buddy.alloc b ~order in
      let pfn' = Ref_buddy.alloc r ~order in
      check Alcotest.int
        (Printf.sprintf "step %d: alloc order %d pfn" step order)
        pfn' pfn;
      live := (pfn, order) :: !live
    end
    else begin
      let i = Mm_util.Rng.int rng (List.length !live) in
      let pfn, order = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Buddy.free b ~pfn ~order;
      Ref_buddy.free r ~pfn ~order
    end;
    compare_state step
  done

let test_reference_equivalence () =
  List.iter (fun seed -> run_equivalence_trace ~seed ~steps:300) [ 1; 7; 42 ]

(* -- Phys / frames / NUMA -- *)

let test_frame_descriptors () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Anon () in
  check Alcotest.bool "kind set" true (f.Frame.kind = Frame.Anon);
  let same = Phys.frame phys f.Frame.pfn in
  check Alcotest.bool "descriptor identity" true (f == same);
  Phys.free phys f;
  check Alcotest.bool "freed" true (f.Frame.kind = Frame.Free);
  Alcotest.(check bool)
    "free of free raises" true
    (try
       Phys.free phys f;
       false
     with Invalid_argument _ -> true)

(* Descriptors reserve their two lock ids at creation, rwlock first, but
   build the locks only on first use. *)
let test_lazy_lock_ids () =
  Mm_obs.Contention.reset ();
  let phys = Phys.create () in
  let frames = List.map (Phys.frame phys) [ 40; 3; 2000 ] in
  (* Build the locks out of creation order: ids must not follow. *)
  List.iter
    (fun f -> ignore (Frame.lock f : Mm_sim.Mutex_s.t))
    (List.rev frames);
  List.iteri
    (fun i f ->
      let rw = Mm_sim.Rwlock_s.id (Frame.rwlock f) in
      check Alcotest.int (Printf.sprintf "frame %d rwlock id" i) (2 * i) rw;
      check Alcotest.int
        (Printf.sprintf "frame %d mutex id" i)
        (rw + 1)
        (Mm_sim.Mutex_s.id (Frame.lock f)))
    frames;
  check Alcotest.int "later locks continue after the reserved ids" 6
    (Mm_sim.Mutex_s.id (Mm_sim.Mutex_s.make ()))

let test_lazy_lock_identity () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Pt_page () in
  let l = Frame.lock f and rw = Frame.rwlock f in
  check Alcotest.bool "same mutex every call" true (Frame.lock f == l);
  check Alcotest.bool "same rwlock every call" true (Frame.rwlock f == rw);
  Phys.free phys f;
  let f' = Phys.alloc phys ~kind:Frame.Pt_page () in
  check Alcotest.bool "frame reused" true (f == f');
  check Alcotest.bool "mutex survives reuse" true (Frame.lock f' == l);
  check Alcotest.bool "rwlock survives reuse" true (Frame.rwlock f' == rw)

let words v = Obj.reachable_words (Obj.repr v)

(* The host words [v] reaches beyond what [w] reaches: a block both
   share, such as the empty chunk every PT page reads, counts once, with
   [w]. *)
let words_beside v w = words (v, w) - words w - 3

(* A PT page's entry storage: its chunks, with the decoded entries they
   hold, and its occupancy bits. *)
let pt_storage ~beside (node : _ Mm_pt.Pt.node) =
  words_beside node.Mm_pt.Pt.chunks beside.Mm_pt.Pt.chunks
  + words node.Mm_pt.Pt.occ

(* [f ()] on the one CPU of a fresh simulated world. *)
let in_sim f =
  let w = Mm_sim.Engine.create ~ncpus:1 and r = ref None in
  Mm_sim.Engine.spawn w ~cpu:0 (fun () -> r := Some (f ()));
  Mm_sim.Engine.run w;
  Option.get !r

let map_page pt node idx =
  Mm_pt.Pt.set pt node idx
    (Mm_hal.Pte.leaf ~pfn:(1000 + idx) ~perm:Mm_hal.Perm.rw ())

(* Host heap per simulated page: a descriptor whose locks were never used,
   and each further present PTE, first stored and then read. A stored
   entry keeps only its raw word, which its chunk already holds; the
   first read adds its decoded leaf (permissions are shared values).
   The PTEs are counted once every 64-entry chunk of the leaf holds a
   read entry: a chunk is paid for by the first entry in its stretch,
   as a dense page paid for all of them when it was created. The
   well-formedness check runs on the unread entries first: it decodes
   every word, but must not keep the decodes. *)
let test_heap_budget () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Anon () in
  check Alcotest.bool
    (Printf.sprintf "descriptor: %d words <= 15" (words f))
    true
    (words f <= 15);
  let pt = Mm_pt.Pt.create phys Mm_hal.Isa.x86_64 in
  let leaf = Mm_pt.Pt.walk_create pt ~to_level:1 0 in
  let n = Mm_pt.Pt.entries_per_node pt in
  let is_first idx = idx mod 64 = 0 in
  let read idx = ignore (Mm_pt.Pt.get_uncharged pt leaf idx : Mm_hal.Pte.t) in
  let firsts = List.filter is_first (List.init n Fun.id) in
  List.iter (map_page pt leaf) firsts;
  List.iter read firsts;
  let before = words leaf in
  let per_pte () =
    float_of_int (words leaf - before) /. float_of_int (n - (n / 64))
  in
  for idx = 0 to n - 1 do
    if not (is_first idx) then map_page pt leaf idx
  done;
  Mm_pt.Pt.check_well_formed pt;
  let unread = per_pte () in
  check Alcotest.bool
    (Printf.sprintf "stored, unread PTE: %.3f words < 0.1" unread)
    true (unread < 0.1);
  for idx = 0 to n - 1 do
    if not (is_first idx) then read idx
  done;
  let read_once = per_pte () in
  check Alcotest.bool
    (Printf.sprintf "present PTE, read once: %.2f words <= 6" read_once)
    true (read_once <= 6.0)

(* Storage of sparse tables. Dense, a PT page's entries took about 1 040
   words (raw page, decoded mirror, one leaf), and a metadata array or
   radix leaf about 520 (512 slots and their occupancy bits), however
   few slots were in use. With one entry each now takes a quarter of
   that at most; a full PT page stays within its dense size plus the
   headers of its eight chunks. *)
let test_sparse_storage () =
  let phys = Phys.create () in
  let pt = Mm_pt.Pt.create phys Mm_hal.Isa.x86_64 in
  let leaf_at vaddr = Mm_pt.Pt.walk_create pt ~to_level:1 vaddr in
  let first = leaf_at 0 and one = leaf_at 0x20_0000 in
  map_page pt first 0;
  map_page pt one 0;
  let one_words = pt_storage ~beside:first one in
  check Alcotest.bool
    (Printf.sprintf "PT page, one entry: %d words <= 260" one_words)
    true (one_words <= 260);
  let full = leaf_at 0x40_0000 in
  for idx = 0 to Mm_pt.Pt.entries_per_node pt - 1 do
    map_page pt full idx
  done;
  let full_words = pt_storage ~beside:first full in
  check Alcotest.bool
    (Printf.sprintf "PT page, full: %d words <= 4 107 + 64" full_words)
    true
    (full_words <= 4107 + 64);
  (* CortenMM: one touched page leaves one valid slot in its level-1
     page's metadata array. *)
  let open Cortenmm in
  let asp = Addr_space.create (Kernel.create ~ncpus:1 ()) Config.adv in
  let addr =
    in_sim (fun () ->
        let addr = Mm_compat.mmap asp ~len:4096 ~perm:Mm_hal.Perm.rw () in
        Mm.touch asp ~vaddr:addr ~write:true;
        addr)
  in
  let apt = Addr_space.pt asp in
  let node = Mm_pt.Pt.walk_opt apt ~to_level:1 addr in
  let m = Option.get node.Mm_pt.Pt.meta in
  check Alcotest.int "one valid metadata slot" 1 m.Addr_space.live;
  let meta_words = words m.Addr_space.slots + words m.Addr_space.bits in
  check Alcotest.bool
    (Printf.sprintf "metadata array, one slot: %d words <= 130" meta_words)
    true (meta_words <= 130);
  (* RadixVM: the words a reservation in a fresh leaf adds, less the
     leaf's lock and cache line, which are not slot storage (its record
     and the parent's child link still count). *)
  let rv = Mm_radixvm.Radixvm.create ~ncpus:1 () in
  let reserve addr =
    in_sim (fun () ->
        ignore
          (Mm_radixvm.Radixvm.mmap rv ~addr ~len:4096 ~perm:Mm_hal.Perm.rw ()
            : int))
  in
  reserve 0x4000_0000;
  let before = words rv in
  reserve 0x4020_0000;
  let lock_and_line =
    words (Mm_sim.Mutex_s.make ~id:0 ~name:"radixvm.node_lock" ())
    + words (Mm_sim.Engine.Line.make ())
  in
  let radix_words = words rv - before - lock_and_line in
  check Alcotest.bool
    (Printf.sprintf "radix leaf, one entry: %d words <= 130" radix_words)
    true (radix_words <= 130)

let test_usage_accounting () =
  let phys = Phys.create () in
  let f1 = Phys.alloc phys ~kind:Frame.Anon () in
  let _ = Phys.alloc phys ~kind:Frame.Pt_page () in
  let u = Phys.usage phys in
  check Alcotest.int "anon bytes" 4096 u.Phys.anon_bytes;
  check Alcotest.int "pt bytes" 4096 u.Phys.pt_bytes;
  Phys.free phys f1;
  check Alcotest.int "anon released" 0 (Phys.usage phys).Phys.anon_bytes;
  check Alcotest.int "peak remembered" 4096 (Phys.peak_data_bytes phys)

let test_numa_striping () =
  let phys = Phys.create ~numa_nodes:4 () in
  check Alcotest.int "4 nodes" 4 (Phys.numa_nodes phys);
  let frames =
    List.init 4 (fun node -> Phys.alloc phys ~kind:Frame.Anon ~node ())
  in
  List.iteri
    (fun node f ->
      check Alcotest.int
        (Printf.sprintf "frame %d on its node" node)
        node
        (Phys.node_of_pfn phys f.Frame.pfn))
    frames;
  (* Freeing works across nodes. *)
  List.iter (Phys.free phys) frames;
  check Alcotest.int "all released" 0 (Phys.allocated_frames phys)

let test_numa_bad_node_rejected () =
  let phys = Phys.create ~numa_nodes:2 () in
  Alcotest.(check bool)
    "bad node raises" true
    (try
       ignore (Phys.alloc phys ~kind:Frame.Anon ~node:5 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "mm_phys"
    [
      ( "buddy",
        [
          Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "split and merge" `Quick test_split_and_merge;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "misaligned free" `Quick
            test_misaligned_free_detected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          QCheck_alcotest.to_alcotest buddy_stress_prop;
          QCheck_alcotest.to_alcotest buddy_no_overlap_prop;
          Alcotest.test_case "reference equivalence" `Quick
            test_reference_equivalence;
        ] );
      ( "phys",
        [
          Alcotest.test_case "frame descriptors" `Quick test_frame_descriptors;
          Alcotest.test_case "lazy lock ids" `Quick test_lazy_lock_ids;
          Alcotest.test_case "lazy lock identity" `Quick
            test_lazy_lock_identity;
          Alcotest.test_case "heap budget" `Quick test_heap_budget;
          Alcotest.test_case "sparse storage" `Quick test_sparse_storage;
          Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
          Alcotest.test_case "numa striping" `Quick test_numa_striping;
          Alcotest.test_case "numa bad node" `Quick test_numa_bad_node_rejected;
        ] );
    ]
