(* Tests for the CortenMM core: the transactional interface (query / map /
   mark / unmap / protect), the two locking protocols, on-demand paging,
   COW fork, swapping, file mappings, huge pages, and functional
   correctness against a flat reference model. *)

open Cortenmm
module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm

let check = Alcotest.check
let page = 4096
let kib n = n * 1024
let mib n = n * 1024 * 1024

(* Run [f] on cpu 0 of a fresh simulation and return its result. *)
let in_sim ?(ncpus = 1) f =
  let w = Engine.create ~ncpus in
  let result = ref None in
  Engine.spawn w ~cpu:0 (fun () -> result := Some (f ()));
  Engine.run w;
  match !result with Some v -> v | None -> Alcotest.fail "fiber died"

let make_asp ?(ncpus = 1) ?(cfg = Config.adv) () =
  let kernel = Kernel.create ~ncpus () in
  (kernel, Addr_space.create kernel cfg)

let both_protocols f () =
  List.iter (fun cfg -> f cfg) [ Config.adv; Config.rw ]

(* -- Basic transactional interface -- *)

let test_mmap_query cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + kib 16) (fun c ->
          for i = 0 to 3 do
            match Addr_space.query c (addr + (i * page)) with
            | Status.Private_anon p ->
              check Alcotest.bool "perm rw" true (Perm.equal p Perm.rw)
            | s -> Alcotest.failf "expected anon mark, got %s" (Status.to_string s)
          done))

let test_touch_maps cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + kib 16) (fun c ->
          (match Addr_space.query c addr with
          | Status.Mapped { perm; _ } ->
            check Alcotest.bool "mapped writable" true perm.Perm.write
          | s -> Alcotest.failf "expected mapped, got %s" (Status.to_string s));
          match Addr_space.query c (addr + page) with
          | Status.Private_anon _ -> ()
          | s ->
            Alcotest.failf "untouched page should stay allocated, got %s"
              (Status.to_string s)))

let test_fault_on_unmapped cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      match Mm.page_fault asp ~vaddr:0x5000_0000 ~write:false with
      | Mm.Sigsegv -> ()
      | Mm.Handled -> Alcotest.fail "fault on unmapped must be SIGSEGV")

let test_touch_raises_on_invalid cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      match Mm.touch asp ~vaddr:0x5000_0000 ~write:false with
      | () -> Alcotest.fail "expected Mm.Fault"
      | exception Mm.Fault v -> check Alcotest.int "fault addr" 0x5000_0000 v)

let test_munmap_clears cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(kib 16) ~write:true;
      Mm_compat.munmap asp ~addr ~len:(kib 16);
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + kib 16) (fun c ->
          for i = 0 to 3 do
            match Addr_space.query c (addr + (i * page)) with
            | Status.Invalid -> ()
            | s -> Alcotest.failf "expected invalid, got %s" (Status.to_string s)
          done);
      Addr_space.check_well_formed asp)

let test_munmap_frees_frames cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let anon () =
        (Mm_phys.Phys.usage kernel.Kernel.phys).Mm_phys.Phys.anon_bytes
      in
      let before = anon () in
      let addr = Mm_compat.mmap asp ~len:(kib 64) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(kib 64) ~write:true;
      check Alcotest.bool "frames grew" true (anon () > before);
      Mm_compat.munmap asp ~addr ~len:(kib 64);
      (* All anonymous frames are released. The covering PT page itself
         (and its ancestors, and the slab-cached metadata frames)
         legitimately survive: removing the covering page would require
         locking its parent, which the transaction does not hold — the
         paper's NO_NEED_TO_REMOVE_PTS case (Fig 6 L27). *)
      check Alcotest.int "anon frames released" before (anon ()))

let test_pt_pages_on_demand cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      (* A 2 MiB-aligned mark should live in an upper-level slot: root +
         L3 + L2, no L1 page. *)
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      check Alcotest.int "3 PT pages after aligned mmap" 3
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));
      (* Faulting one page materializes exactly one L1 page. *)
      Mm.touch asp ~vaddr:addr ~write:false;
      check Alcotest.int "4 PT pages after one fault" 4
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));
      Addr_space.check_well_formed asp)

let test_mark_upper_level cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      (* 1 GiB-aligned 1 GiB mapping: the mark sits in one L3 slot. *)
      let addr = mib 1024 in
      let _ = Mm_compat.mmap asp ~addr ~len:(mib 1024) ~perm:Perm.r () in
      check Alcotest.int "2 PT pages for 1GiB mark" 2
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));
      (* Unmapping a 4 KiB page in the middle splits the mark downward. *)
      Mm_compat.munmap asp ~addr:(addr + mib 3) ~len:page;
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + mib 1024) (fun c ->
          (match Addr_space.query c (addr + mib 3) with
          | Status.Invalid -> ()
          | s -> Alcotest.failf "hole should be invalid, got %s" (Status.to_string s));
          match Addr_space.query c (addr + mib 3 + page) with
          | Status.Private_anon _ -> ()
          | s -> Alcotest.failf "neighbour survives, got %s" (Status.to_string s));
      Addr_space.check_well_formed asp)

let test_mprotect cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      Mm_compat.mprotect asp ~addr ~len:(kib 16) ~perm:Perm.r;
      (match Mm.page_fault asp ~vaddr:addr ~write:true with
      | Mm.Sigsegv -> ()
      | Mm.Handled -> Alcotest.fail "write to read-only page must fault");
      Mm_compat.mprotect asp ~addr ~len:(kib 16) ~perm:Perm.rw;
      Mm.touch asp ~vaddr:addr ~write:true;
      Addr_space.check_well_formed asp)

(* -- Values, COW, fork -- *)

let test_write_read_value cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:42;
      check Alcotest.int "read back" 42 (Mm.read_value asp ~vaddr:addr))

let test_fork_cow cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:42;
      let child = Mm.fork asp in
      (* Child observes the parent's data. *)
      check Alcotest.int "child reads parent data" 42
        (Mm.read_value child ~vaddr:addr);
      (* Child write breaks COW: parent unaffected. *)
      Mm.write_value child ~vaddr:addr ~value:7;
      check Alcotest.int "child sees own write" 7
        (Mm.read_value child ~vaddr:addr);
      check Alcotest.int "parent unchanged" 42 (Mm.read_value asp ~vaddr:addr);
      (* Parent write now finds map_count = 1: no copy, just re-enable. *)
      let frames_before = Mm_phys.Phys.allocated_frames kernel.Kernel.phys in
      Mm.write_value asp ~vaddr:addr ~value:43;
      check Alcotest.int "no copy when sole owner" frames_before
        (Mm_phys.Phys.allocated_frames kernel.Kernel.phys);
      check Alcotest.int "parent sees own write" 43
        (Mm.read_value asp ~vaddr:addr);
      Addr_space.check_well_formed asp;
      Addr_space.check_well_formed child)

let test_fork_unfaulted_marks cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 64) ~perm:Perm.rw () in
      let child = Mm.fork asp in
      (* Virtually allocated (never faulted) regions are inherited. *)
      Mm.write_value child ~vaddr:(addr + kib 32) ~value:9;
      check Alcotest.int "child faults inherited mark" 9
        (Mm.read_value child ~vaddr:(addr + kib 32)))

let test_fork_shared_anon cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let shm = File.shm () in
      let addr =
        Mm_compat.mmap asp ~backing:(Mm.Shared (shm, 0)) ~len:(kib 16) ~perm:Perm.rw ()
      in
      Mm.write_value asp ~vaddr:addr ~value:5;
      let child = Mm.fork asp in
      (* Shared memory does not COW: child writes are visible to parent. *)
      Mm.write_value child ~vaddr:addr ~value:6;
      check Alcotest.int "parent sees shared write" 6
        (Mm.read_value asp ~vaddr:addr);
      ignore kernel)

let test_destroy cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let anon () =
        (Mm_phys.Phys.usage kernel.Kernel.phys).Mm_phys.Phys.anon_bytes
      in
      let base = anon () in
      let addr = Mm_compat.mmap asp ~len:(mib 1) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(mib 1) ~write:true;
      Mm.destroy asp;
      check Alcotest.int "all anon frames released" base (anon ());
      check Alcotest.int "only root PT page left" 1
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp)))

(* -- Backing objects: the shadow-chain story behind COW fork -- *)

(* Both sides of a fork are write-protected and COW-marked on every
   private resident page — the x86 mechanism the object layer rides. *)
let test_fork_wp_both_sides cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(kib 16) ~write:true;
      let child = Mm.fork asp in
      let assert_cow name sp =
        Addr_space.with_lock sp ~lo:addr ~hi:(addr + kib 16) (fun c ->
            for i = 0 to 3 do
              match Addr_space.query c (addr + (i * page)) with
              | Status.Mapped { perm; _ } ->
                check Alcotest.bool
                  (Printf.sprintf "%s page %d write-protected" name i)
                  false perm.Perm.write;
                check Alcotest.bool
                  (Printf.sprintf "%s page %d COW-marked" name i)
                  true perm.Perm.cow
              | s ->
                Alcotest.failf "%s: expected mapped, got %s" name
                  (Status.to_string s)
            done)
      in
      assert_cow "parent" asp;
      assert_cow "child" child;
      Mm.destroy child)

(* fork pushes one shadow per side over a shared base holding the
   pre-fork records; the sibling's exit collapses the base into the
   survivor, records and all, refcount back to a depth-one chain. *)
let test_fork_chain_collapse cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:1;
      check Alcotest.int "pre-fork depth 1" 1
        (Vm_object.depth (Addr_space.vm_object asp));
      let child = Mm.fork asp in
      let ptop = Addr_space.vm_object asp
      and ctop = Addr_space.vm_object child in
      check Alcotest.int "parent depth 2" 2 (Vm_object.depth ptop);
      check Alcotest.int "child depth 2" 2 (Vm_object.depth ctop);
      let base =
        match Vm_object.parent ptop with
        | Some b -> b
        | None -> Alcotest.fail "parent shadow has no base"
      in
      (match Vm_object.parent ctop with
      | Some b -> check Alcotest.bool "one shared base" true (b == base)
      | None -> Alcotest.fail "child shadow has no base");
      check Alcotest.int "base referenced by both shadows" 2
        (Vm_object.refs base);
      check Alcotest.int "base owns the pre-fork record" 1
        (Vm_object.page_slots base);
      check Alcotest.int "parent shadow starts empty" 0
        (Vm_object.page_slots ptop);
      Mm.destroy child;
      check Alcotest.bool "base collapsed (dead)" true (Vm_object.is_dead base);
      check Alcotest.int "parent back on depth 1" 1
        (Vm_object.depth (Addr_space.vm_object asp));
      check Alcotest.int "record migrated into the survivor" 1
        (Vm_object.page_slots (Addr_space.vm_object asp));
      check Alcotest.int "data intact across the collapse" 1
        (Mm.read_value asp ~vaddr:addr))

(* Parent and child diverge at exactly the pages someone wrote after the
   fork — everything else stays shared and equal, and only the written
   page is recorded privately in the writer's shadow. *)
let test_fork_divergence_only_at_writes cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      for i = 0 to 3 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(100 + i)
      done;
      let child = Mm.fork asp in
      Mm.write_value child ~vaddr:(addr + page) ~value:777;
      for i = 0 to 3 do
        let p = Mm.read_value asp ~vaddr:(addr + (i * page))
        and c = Mm.read_value child ~vaddr:(addr + (i * page)) in
        if i = 1 then begin
          check Alcotest.int "parent keeps the pre-fork value" 101 p;
          check Alcotest.int "child sees its own write" 777 c
        end
        else check Alcotest.int (Printf.sprintf "page %d identical" i) p c
      done;
      check Alcotest.int "exactly one private record in the child" 1
        (Vm_object.page_slots (Addr_space.vm_object child));
      Addr_space.check_well_formed asp;
      Addr_space.check_well_formed child;
      Mm.destroy child)

(* exec: destroy tears the image down but leaves the space reusable on a
   fresh depth-one chain (the LMbench fork+exec pattern). *)
let test_destroy_then_repopulate cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:9;
      Mm.destroy asp;
      check Alcotest.int "fresh depth-one chain" 1
        (Vm_object.depth (Addr_space.vm_object asp));
      let addr2 = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr2 ~value:11;
      check Alcotest.int "repopulated space works" 11
        (Mm.read_value asp ~vaddr:addr2))

(* -- Swap -- *)

let test_swap_roundtrip cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let dev = Blockdev.create ~name:"swap0" () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:77;
      check Alcotest.bool "swap out succeeds" true
        (Mm.swap_out asp ~vaddr:addr ~dev);
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) (fun c ->
          match Addr_space.query c addr with
          | Status.Swapped _ -> ()
          | s -> Alcotest.failf "expected swapped, got %s" (Status.to_string s));
      check Alcotest.int "one block used" 1 (Blockdev.used_blocks dev);
      (* Touching swaps it back in with the data intact. *)
      check Alcotest.int "value survives swap" 77
        (Mm.read_value asp ~vaddr:addr);
      check Alcotest.int "block freed after swap-in" 0
        (Blockdev.used_blocks dev))

let test_swap_skips_shared cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let dev = Blockdev.create ~name:"swap0" () in
      let addr = Mm_compat.mmap asp ~len:page ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:1;
      let child = Mm.fork asp in
      (* COW-shared page: map_count = 2, the simple swapper skips it. *)
      check Alcotest.bool "shared page skipped" false
        (Mm.swap_out asp ~vaddr:addr ~dev);
      ignore child)

(* -- File mappings -- *)

let test_private_file_read cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let file = File.regular ~name:"data.bin" in
      let addr =
        Mm_compat.mmap asp
          ~backing:(Mm.File_private (file, kib 8))
          ~len:(kib 16) ~perm:Perm.r ()
      in
      (* Reading faults in page-cache pages with the file's content. *)
      let v = Mm.read_value asp ~vaddr:addr in
      check Alcotest.int "file token page 2" (File.page_token file ~page_index:2) v;
      let v2 = Mm.read_value asp ~vaddr:(addr + page) in
      check Alcotest.int "file token page 3" (File.page_token file ~page_index:3) v2;
      check Alcotest.int "two pages cached" 2 (File.cached_pages file))

let test_private_file_cow cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let file = File.regular ~name:"data.bin" in
      let addr =
        Mm_compat.mmap asp
          ~backing:(Mm.File_private (file, 0))
          ~len:(kib 16) ~perm:Perm.rw ()
      in
      let original = Mm.read_value asp ~vaddr:addr in
      (* A private write must not modify the page cache. *)
      Mm.write_value asp ~vaddr:addr ~value:1234;
      check Alcotest.int "private write visible" 1234
        (Mm.read_value asp ~vaddr:addr);
      (match File.lookup_page file ~page_index:0 with
      | Some f ->
        check Alcotest.int "page cache unchanged" original
          (Mm_phys.Phys.contents (Addr_space.kernel asp).Kernel.phys f)
      | None -> Alcotest.fail "cache page vanished"))

let test_shared_file_write_and_msync cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let file = File.regular ~name:"log.bin" in
      let addr =
        Mm_compat.mmap asp ~backing:(Mm.Shared (file, 0)) ~len:(kib 16) ~perm:Perm.rw ()
      in
      Mm.write_value asp ~vaddr:addr ~value:555;
      (* Shared write goes to the page cache and marks it dirty. *)
      (match File.lookup_page file ~page_index:0 with
      | Some f ->
        check Alcotest.int "cache sees write" 555
          (Mm_phys.Phys.contents (Addr_space.kernel asp).Kernel.phys f)
      | None -> Alcotest.fail "cache page missing");
      check Alcotest.int "msync writes one page" 1 (Mm_compat.msync asp ~file);
      check Alcotest.int "second msync writes nothing" 0
        (Mm_compat.msync asp ~file))

let test_file_rmap cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let file = File.regular ~name:"lib.so" in
      let addr =
        Mm_compat.mmap asp ~backing:(Mm.File_private (file, 0)) ~len:(kib 16)
          ~perm:Perm.r ()
      in
      Mm.touch asp ~vaddr:addr ~write:false;
      check Alcotest.int "one mapper recorded" 1
        (List.length (File.mappers file));
      Mm_compat.munmap asp ~addr ~len:(kib 16);
      check Alcotest.int "mapper removed on unmap" 0
        (List.length (File.mappers file)))

let test_anon_rmap cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      let pfn =
        Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) (fun c ->
            match Addr_space.query c addr with
            | Status.Mapped { pfn; _ } -> pfn
            | _ -> Alcotest.fail "not mapped")
      in
      (match Kernel.rmap_of kernel ~pfn with
      | [ (asp_id, vaddr) ] ->
        check Alcotest.int "rmap asp" (Addr_space.id asp) asp_id;
        check Alcotest.int "rmap vaddr" addr vaddr
      | l -> Alcotest.failf "expected one rmap entry, got %d" (List.length l));
      Mm_compat.munmap asp ~addr ~len:(kib 16);
      check Alcotest.int "rmap cleared" 0
        (List.length (Kernel.rmap_of kernel ~pfn)))

(* -- Huge pages -- *)

let test_huge_map_and_split cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let addr = mib 512 in
      (* Map a 2 MiB huge page directly. *)
      let frame =
        Mm_phys.Phys.alloc kernel.Kernel.phys ~kind:Mm_phys.Frame.Anon ~order:9 ()
      in
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + mib 2) (fun c ->
          Addr_space.map c ~vaddr:addr ~frame ~perm:Perm.rw ~level:2 ());
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + mib 2) (fun c ->
          match Addr_space.query c (addr + kib 12) with
          | Status.Mapped { pfn; _ } ->
            check Alcotest.int "huge page interior pfn"
              ((frame :> int) + 3) pfn
          | s -> Alcotest.failf "expected mapped, got %s" (Status.to_string s));
      (* Unmapping one 4 KiB page splits the huge leaf. *)
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + mib 2) (fun c ->
          Addr_space.unmap c ~lo:(addr + kib 12) ~hi:(addr + kib 16));
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + mib 2) (fun c ->
          (match Addr_space.query c (addr + kib 12) with
          | Status.Invalid -> ()
          | s -> Alcotest.failf "hole expected, got %s" (Status.to_string s));
          match Addr_space.query c (addr + kib 8) with
          | Status.Mapped { pfn; _ } ->
            check Alcotest.int "neighbour pfn preserved"
              ((frame :> int) + 2) pfn
          | s -> Alcotest.failf "expected mapped, got %s" (Status.to_string s));
      Addr_space.check_well_formed asp)

(* -- Locking protocol behaviour -- *)

let test_adv_stale_retry () =
  (* CPU 1 races a lock acquisition against CPU 0 unmapping the PT page
     (Fig 7): CPU 1 must detect the stale page and retry, and both
     transactions must apply. *)
  let outcome =
    in_sim ~ncpus:2 (fun () ->
        (* This closure runs on cpu 0; spawn work for cpu 1 within the same
           world via a second fiber below. *)
        ())
  in
  ignore outcome;
  let w = Engine.create ~ncpus:2 in
  let kernel = Kernel.create ~ncpus:2 () in
  let asp = Addr_space.create kernel Config.adv in
  let addr = mib 256 in
  let done0 = ref false and done1 = ref false in
  Engine.spawn w ~cpu:0 (fun () ->
      let _ = Mm_compat.mmap asp ~addr ~len:(mib 2) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      (* Unmap the whole 2 MiB: frees the L1 PT page under the covering
         L2 page while cpu 1 is trying to lock it. *)
      Mm_compat.munmap asp ~addr ~len:(mib 2);
      done0 := true);
  Engine.spawn w ~cpu:1 (fun () ->
      (* Arrive while cpu 0 holds the locks. *)
      Engine.tick 9_000;
      let _ = Mm_compat.mmap asp ~addr:(addr + kib 4) ~len:(kib 4) ~perm:Perm.rw () in
      done1 := true);
  Engine.run w;
  check Alcotest.bool "cpu0 done" true !done0;
  check Alcotest.bool "cpu1 done" true !done1;
  Addr_space.check_well_formed asp

let test_disjoint_parallelism () =
  (* Transactions on disjoint regions must overlap in time (the paper's
     concurrency semantics). The very first operation in a fresh region
     locks a high covering page (the PT pages do not exist yet) and
     serializes; repeated operations hit the persisting leaf PT pages, so
     with enough iterations the parallel run must be far faster than the
     serial one. *)
  let ncpus = 8 and iters = 30 in
  let work asp region =
    let addr = mib (256 * (region + 1)) in
    for _ = 1 to iters do
      let _ = Mm_compat.mmap asp ~addr ~len:(kib 64) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(kib 64) ~write:true;
      Mm_compat.munmap asp ~addr ~len:(kib 64)
    done
  in
  let serial_time =
    let w = Engine.create ~ncpus:1 in
    let kernel = Kernel.create ~ncpus:1 () in
    let asp = Addr_space.create kernel Config.adv in
    Engine.spawn w ~cpu:0 (fun () ->
        for i = 0 to ncpus - 1 do
          work asp i
        done);
    Engine.run w;
    Engine.max_time w
  in
  let parallel_time =
    let w = Engine.create ~ncpus in
    let kernel = Kernel.create ~ncpus () in
    let asp = Addr_space.create kernel Config.adv in
    for cpu = 0 to ncpus - 1 do
      Engine.spawn w ~cpu (fun () -> work asp cpu)
    done;
    Engine.run w;
    Engine.max_time w
  in
  check Alcotest.bool
    (Printf.sprintf "parallel (%d) much faster than serial (%d)" parallel_time
       serial_time)
    true
    (parallel_time * 3 < serial_time)

let test_overlapping_serialize () =
  (* Concurrent faults on the same page: exactly one frame must end up
     mapped, and the space must stay well-formed. *)
  let ncpus = 4 in
  let w = Engine.create ~ncpus in
  let kernel = Kernel.create ~ncpus () in
  let asp = Addr_space.create kernel Config.adv in
  let addr = mib 256 in
  Engine.spawn w ~cpu:0 (fun () ->
      ignore (Mm_compat.mmap asp ~addr ~len:(kib 16) ~perm:Perm.rw ()));
  Engine.run w;
  let w = Engine.create ~ncpus in
  for cpu = 0 to ncpus - 1 do
    Engine.spawn w ~cpu (fun () -> Mm.touch asp ~vaddr:addr ~write:true)
  done;
  Engine.run w;
  Addr_space.check_well_formed asp;
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) (fun c ->
          match Addr_space.query c addr with
          | Status.Mapped _ -> ()
          | s -> Alcotest.failf "expected mapped, got %s" (Status.to_string s)));
  Engine.run w

let test_chaos_stress () =
  (* 16 CPUs hammer a mix of private and shared regions with every
     operation type under both protocols; the space must end well-formed
     and the run must be deterministic. *)
  let run cfg seed =
    let ncpus = 16 in
    let kernel = Kernel.create ~ncpus () in
    let asp = Addr_space.create kernel cfg in
    let w = Engine.create ~ncpus in
    let shared = mib 64 in
    Engine.spawn w ~cpu:0 (fun () ->
        ignore (Mm_compat.mmap asp ~addr:shared ~len:(mib 4) ~perm:Perm.rw ()));
    Engine.run w;
    let w = Engine.create ~ncpus in
    for cpu = 0 to ncpus - 1 do
      let rng = Mm_util.Rng.create ~seed:(seed + (13 * cpu)) in
      Engine.spawn w ~cpu (fun () ->
          let mine = ref [] in
          for i = 0 to 39 do
            (match Mm_util.Rng.int rng 6 with
            | 0 ->
              let len = (1 + Mm_util.Rng.int rng 4) * page in
              mine := (Mm_compat.mmap asp ~len ~perm:Perm.rw (), len) :: !mine
            | 1 -> (
              match !mine with
              | (a, len) :: rest ->
                Mm_compat.munmap asp ~addr:a ~len;
                mine := rest
              | [] -> ())
            | 2 -> (
              match !mine with
              | (a, _) :: _ -> (
                try Mm.touch asp ~vaddr:a ~write:true with Mm.Fault _ -> ())
              | [] -> ())
            | 3 ->
              (* Random access in the shared region. *)
              let v = shared + (Mm_util.Rng.int rng 1024 * page) in
              (try Mm.touch asp ~vaddr:v ~write:(Mm_util.Rng.bool rng)
               with Mm.Fault _ -> ())
            | 4 -> (
              match !mine with
              | (a, len) :: _ ->
                Mm_compat.mprotect asp ~addr:a ~len
                  ~perm:(if Mm_util.Rng.bool rng then Perm.r else Perm.rw)
              | [] -> ())
            | _ ->
              (* Unmap a random chunk of the shared region (races with
                 other CPUs' faults there). *)
              let v = shared + (Mm_util.Rng.int rng 1024 * page) in
              Mm_compat.munmap asp ~addr:v ~len:page);
            if i mod 8 = 0 then Mm.timer_tick asp
          done)
    done;
    Engine.run w;
    Addr_space.check_well_formed asp;
    (Engine.max_time w, Addr_space.stale_retries asp)
  in
  List.iter
    (fun cfg ->
      let a = run cfg 1 in
      let b = run cfg 1 in
      check Alcotest.bool "deterministic chaos" true (a = b))
    [ Config.adv; Config.rw ]

(* -- Functional correctness against a flat reference model (P2) --

   The reference is a map from page number to an abstract status; every
   operation is applied to both the real system and the reference, then
   query must agree over the whole window. This is the model-checking
   analog of the paper's Verus proof of RCursor correctness. *)

module Ref_model = struct
  type entry = R_invalid | R_anon of Perm.t | R_mapped of Perm.t

  type t = (int, entry) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get t vpn =
    match Hashtbl.find_opt t vpn with Some e -> e | None -> R_invalid

  let set t vpn e =
    if e = R_invalid then Hashtbl.remove t vpn else Hashtbl.replace t vpn e

  let agree entry (s : Status.t) =
    match (entry, s) with
    | R_invalid, Status.Invalid -> true
    | R_anon p, Status.Private_anon q -> Perm.equal p q
    | R_mapped p, Status.Mapped { perm = q; _ } ->
      (* The real system may clear cow/write differently on fault; compare
         the user-visible access rights. *)
      p.Perm.read = q.Perm.read
      && (p.Perm.write = q.Perm.write || q.Perm.cow)
    | _ -> false
end

type op =
  | Op_mmap of int * int * bool (* page index, pages, writable *)
  | Op_munmap of int * int
  | Op_touch of int * bool
  | Op_protect of int * int * bool

let window_pages = 64
let window_base = 0x4000_0000 (* 1 GiB, 2MiB-aligned *)

let gen_op =
  QCheck.Gen.(
    let* k = int_bound 3 in
    let* p = int_bound (window_pages - 1) in
    let* n = int_range 1 8 in
    let n = min n (window_pages - p) in
    let* w = bool in
    return
      (match k with
      | 0 -> Op_mmap (p, n, w)
      | 1 -> Op_munmap (p, n)
      | 2 -> Op_touch (p, w)
      | _ -> Op_protect (p, n, w)))

let apply_real asp op =
  let a p = window_base + (p * page) in
  match op with
  | Op_mmap (p, n, w) ->
    ignore
      (Mm_compat.mmap asp ~addr:(a p) ~len:(n * page)
         ~perm:(if w then Perm.rw else Perm.r)
         ())
  | Op_munmap (p, n) -> Mm_compat.munmap asp ~addr:(a p) ~len:(n * page)
  | Op_touch (p, w) -> (
    try Mm.touch asp ~vaddr:(a p) ~write:w with Mm.Fault _ -> ())
  | Op_protect (p, n, w) ->
    Mm_compat.mprotect asp ~addr:(a p) ~len:(n * page)
      ~perm:(if w then Perm.rw else Perm.r)

let apply_ref model op =
  let perm w = if w then Perm.rw else Perm.r in
  match op with
  | Op_mmap (p, n, w) ->
    for i = p to p + n - 1 do
      Ref_model.set model i (Ref_model.R_anon (perm w))
    done
  | Op_munmap (p, n) ->
    for i = p to p + n - 1 do
      Ref_model.set model i Ref_model.R_invalid
    done
  | Op_touch (p, w) -> (
    match Ref_model.get model p with
    | Ref_model.R_anon q when Perm.allows q ~write:w ->
      Ref_model.set model p (Ref_model.R_mapped q)
    | Ref_model.R_mapped _ | Ref_model.R_anon _ | Ref_model.R_invalid -> ())
  | Op_protect (p, n, w) ->
    for i = p to p + n - 1 do
      match Ref_model.get model i with
      | Ref_model.R_invalid -> ()
      | Ref_model.R_anon _ -> Ref_model.set model i (Ref_model.R_anon (perm w))
      | Ref_model.R_mapped _ ->
        Ref_model.set model i (Ref_model.R_mapped (perm w))
    done

let run_against_model cfg ops =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let model = Ref_model.create () in
      let ok = ref true in
      List.iter
        (fun op ->
          apply_real asp op;
          apply_ref model op;
          Addr_space.check_well_formed asp;
          Addr_space.with_lock asp ~lo:window_base
            ~hi:(window_base + (window_pages * page)) (fun c ->
              for vpn = 0 to window_pages - 1 do
                let s = Addr_space.query c (window_base + (vpn * page)) in
                if not (Ref_model.agree (Ref_model.get model vpn) s) then
                  ok := false
              done))
        ops;
      !ok)

let functional_correctness_prop cfg name =
  QCheck.Test.make ~name ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) gen_op))
    (fun ops -> run_against_model cfg ops)

(* -- Va_alloc -- *)

let test_va_alloc_disjoint () =
  in_sim ~ncpus:4 (fun () ->
      let va =
        Va_alloc.create ~ncpus:4 ~per_core:true ~va_lo:0x1000_0000
          ~va_hi:0x8000_0000_0000 ~page_size:page
      in
      (* Different cores allocate from disjoint shares. *)
      let a0 = Va_alloc.alloc va ~cpu:0 ~len:(kib 16) () in
      let a1 = Va_alloc.alloc va ~cpu:1 ~len:(kib 16) () in
      check Alcotest.bool "disjoint shares" true (abs (a0 - a1) > mib 1);
      (* Freed ranges are reused. *)
      Va_alloc.free va ~cpu:0 ~addr:a0 ~len:(kib 16);
      let a0' = Va_alloc.alloc va ~cpu:0 ~len:(kib 16) () in
      check Alcotest.int "freed range reused" a0 a0')

let test_meta_accounting cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      let stats = Addr_space.mem_stats asp in
      check Alcotest.bool "meta bytes tracked" true
        (stats.Addr_space.meta_bytes > 0);
      check Alcotest.bool "upper bound dominates" true
        (Addr_space.meta_bytes_upper_bound asp >= stats.Addr_space.meta_bytes);
      Mm_compat.munmap asp ~addr ~len:(kib 16))

(* The deprecated exception wrappers are gone: the typed [_r] surface is
   the only entry point.  This test pins the migration — the same
   mmap/touch/munmap flow through [_r], plus the error shapes the old
   wrappers used to express as exceptions. *)
let test_typed_surface_replaces_wrappers cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      Mm_compat.munmap asp ~addr ~len:(kib 16);
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) (fun c ->
          match Addr_space.query c addr with
          | Status.Invalid -> ()
          | s -> Alcotest.failf "expected Invalid, got %s" (Status.to_string s));
      (* Malformed requests come back as typed errors, not exceptions. *)
      (match Mm.mmap_r asp ~len:0 ~perm:Perm.rw () with
      | Error Mm_hal.Errno.EINVAL -> ()
      | Ok _ | Error _ -> Alcotest.fail "empty mmap must be EINVAL");
      match Mm.mlock_r asp ~addr:(page / 2) ~len:page with
      | Error Mm_hal.Errno.EINVAL -> ()
      | Ok _ | Error _ -> Alcotest.fail "unaligned mlock must be EINVAL")

(* An exception escaping the [with_lock] callback must still release the
   range locks and leave the protocol state clean: a subsequent
   overlapping transaction would deadlock otherwise. *)
exception Callback_boom

let test_with_lock_exception_safety cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      (try
         Addr_space.with_lock asp ~lo:addr ~hi:(addr + kib 16) (fun _c ->
             raise Callback_boom)
       with Callback_boom -> ());
      (* The same range locks again without deadlocking, and the space is
         still fully usable. *)
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + kib 16) (fun c ->
          match Addr_space.query c addr with
          | Status.Private_anon _ -> ()
          | s -> Alcotest.failf "expected anon mark, got %s" (Status.to_string s));
      Mm.touch asp ~vaddr:addr ~write:true;
      Mm_compat.munmap asp ~addr ~len:(kib 16);
      Addr_space.check_well_formed asp)

(* Minor-heap words one empty one-page transaction allocates, averaged
   over many: the page is mapped, so each protocol locks the leaf PT
   page, and the warm-up run has built every lock it takes. *)
let empty_txn_words cfg =
  in_sim (fun () ->
      let _, asp = make_asp ~cfg () in
      let addr = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.touch asp ~vaddr:addr ~write:true;
      let txn () = Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) ignore in
      txn ();
      let n = 1000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        txn ()
      done;
      (Gc.minor_words () -. w0) /. float_of_int n)

(* The transaction's bookkeeping is its cursor, the fiber option it
   hands to [Pt], its lock list and, under rw, its read path of three
   ancestors: measured at 28 words (rw) and 19 (adv), where reversing
   the read path and building closures on every commit took 65 and 45.
   Bringing either back fails the bound. *)
let test_txn_heap_budget cfg =
  let words = empty_txn_words cfg in
  let measured =
    match cfg.Config.protocol with Config.Rw -> 28 | Config.Adv -> 19
  in
  if words > float_of_int (measured + 4) then
    Alcotest.failf
      "an empty one-page transaction allocates %.1f words (bound %d)" words
      (measured + 4)

let proto_case name f =
  Alcotest.test_case name `Quick (both_protocols (fun cfg -> f cfg))

let () =
  Alcotest.run "cortenmm"
    [
      ( "interface",
        [
          proto_case "mmap + query" test_mmap_query;
          proto_case "touch maps on demand" test_touch_maps;
          proto_case "fault on unmapped" test_fault_on_unmapped;
          proto_case "touch raises Fault" test_touch_raises_on_invalid;
          proto_case "munmap clears" test_munmap_clears;
          proto_case "munmap frees frames" test_munmap_frees_frames;
          proto_case "PT pages on demand" test_pt_pages_on_demand;
          proto_case "upper-level marks" test_mark_upper_level;
          proto_case "mprotect" test_mprotect;
        ] );
      ( "cow-fork",
        [
          proto_case "write/read value" test_write_read_value;
          proto_case "fork COW semantics" test_fork_cow;
          proto_case "fork inherits marks" test_fork_unfaulted_marks;
          proto_case "fork shares shm" test_fork_shared_anon;
          proto_case "destroy releases all" test_destroy;
          proto_case "fork write-protects both sides" test_fork_wp_both_sides;
          proto_case "shadow chain collapses on exit" test_fork_chain_collapse;
          proto_case "divergence only at written pages"
            test_fork_divergence_only_at_writes;
          proto_case "destroy then repopulate (exec)"
            test_destroy_then_repopulate;
        ] );
      ( "swap",
        [
          proto_case "swap roundtrip" test_swap_roundtrip;
          proto_case "swap skips shared" test_swap_skips_shared;
        ] );
      ( "files",
        [
          proto_case "private file read" test_private_file_read;
          proto_case "private file COW" test_private_file_cow;
          proto_case "shared file + msync" test_shared_file_write_and_msync;
          proto_case "file rmap" test_file_rmap;
          proto_case "anon rmap" test_anon_rmap;
        ] );
      ( "huge-pages",
        [ proto_case "huge map and split" test_huge_map_and_split ] );
      ( "locking",
        [
          Alcotest.test_case "adv stale retry" `Quick test_adv_stale_retry;
          Alcotest.test_case "disjoint parallelism" `Quick
            test_disjoint_parallelism;
          Alcotest.test_case "overlapping serialize" `Quick
            test_overlapping_serialize;
          Alcotest.test_case "16-cpu chaos stress" `Quick test_chaos_stress;
          proto_case "with_lock exception safety" test_with_lock_exception_safety;
          proto_case "one-page transaction heap budget" test_txn_heap_budget;
        ] );
      ( "functional-correctness",
        [
          QCheck_alcotest.to_alcotest
            (functional_correctness_prop Config.adv
               "adv ops agree with reference model");
          QCheck_alcotest.to_alcotest
            (functional_correctness_prop Config.rw
               "rw ops agree with reference model");
        ] );
      ( "allocators",
        [
          Alcotest.test_case "va alloc disjoint" `Quick test_va_alloc_disjoint;
          proto_case "meta accounting" test_meta_accounting;
        ] );
      ( "legacy",
        [
          proto_case "typed surface replaces wrappers"
            test_typed_surface_replaces_wrappers;
        ] );
    ]
