(* Tests for the two remaining extensions: transparent huge-page
   promotion (khugepaged) and second-chance swapping by the page-out
   daemon's clock pass. *)

open Cortenmm
module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm

let check = Alcotest.check
let page = 4096
let mib n = n * 1024 * 1024

let in_sim ?(ncpus = 1) f =
  let w = Engine.create ~ncpus in
  let result = ref None in
  Engine.spawn w ~cpu:0 (fun () -> result := Some (f ()));
  Engine.run w;
  match !result with Some v -> v | None -> Alcotest.fail "fiber died"

let make_asp ?(cfg = Config.adv) () =
  let kernel = Kernel.create ~ncpus:1 () in
  (kernel, Addr_space.create kernel cfg)

let status_at asp addr =
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + page) (fun c ->
      Addr_space.query c addr)

(* -- THP promotion -- *)

let fill_2mib asp addr =
  Mm.touch_range asp ~addr ~len:(mib 2) ~write:true

let test_promote_basic () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      fill_2mib asp addr;
      Mm.write_value asp ~vaddr:(addr + (123 * page)) ~value:777;
      let pt_before = Mm_pt.Pt.pt_page_count (Addr_space.pt asp) in
      check Alcotest.bool "promotes" true (Mm.promote_huge asp ~vaddr:addr);
      (* The L1 PT page is gone; the mapping is one huge leaf. *)
      check Alcotest.int "one PT page fewer" (pt_before - 1)
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));
      (* Data survives the copy, at every offset. *)
      check Alcotest.int "value preserved" 777
        (Mm.read_value asp ~vaddr:(addr + (123 * page)));
      Addr_space.check_well_formed asp)

let test_promote_rejects_partial () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      (* Only half the pages are resident. *)
      Mm.touch_range asp ~addr ~len:(mib 1) ~write:true;
      check Alcotest.bool "rejected" false (Mm.promote_huge asp ~vaddr:addr))

let test_promote_rejects_cow () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      fill_2mib asp addr;
      let child = Mm.fork asp in
      (* Shared COW pages must not be promoted out from under the child. *)
      check Alcotest.bool "rejected while COW-shared" false
        (Mm.promote_huge asp ~vaddr:addr);
      ignore child)

let test_promoted_page_unmaps () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let anon () =
        (Mm_phys.Phys.usage kernel.Kernel.phys).Mm_phys.Phys.anon_bytes
      in
      let before = anon () in
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      fill_2mib asp addr;
      ignore (Mm.promote_huge asp ~vaddr:addr);
      Mm_compat.munmap asp ~addr ~len:(mib 2);
      (* The whole 512-frame huge block is released. *)
      check Alcotest.int "anon frames released" before (anon ());
      Addr_space.check_well_formed asp)

let test_khugepaged_scans () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a1 = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      let a2 = Mm_compat.mmap asp ~addr:(mib 1024) ~len:(mib 2) ~perm:Perm.rw () in
      fill_2mib asp a1;
      fill_2mib asp a2;
      check Alcotest.int "promotes both regions" 2 (Mm.khugepaged asp);
      check Alcotest.int "second scan finds nothing" 0 (Mm.khugepaged asp))

let test_auto_thp () =
  in_sim (fun () ->
      let kernel = Kernel.create ~ncpus:1 () in
      let asp = Addr_space.create kernel (Config.with_thp Config.adv) in
      let addr = Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw () in
      (* Touching the last page completes the leaf: auto-promotion. *)
      fill_2mib asp addr;
      match status_at asp (addr + page) with
      | Status.Mapped { pfn; _ } ->
        (* An interior page of a huge leaf: pfn is block-contiguous. *)
        let head =
          match status_at asp addr with
          | Status.Mapped { pfn; _ } -> pfn
          | _ -> Alcotest.fail "head not mapped"
        in
        check Alcotest.int "contiguous block" (head + 1) pfn
      | s -> Alcotest.failf "expected mapped, got %s" (Status.to_string s))

(* -- Swap daemon: the page-out daemon's clock pass over one space -- *)

let make_daemon kernel asp =
  let dev = Blockdev.create ~name:"swap0" () in
  let daemon = Pageoutd.create kernel ~dev () in
  Pageoutd.register_space daemon asp;
  (daemon, dev)

let check_clock daemon ~scanned ~second_chances ~swapped =
  let s = Pageoutd.stats daemon in
  check Alcotest.int "pages scanned" scanned s.Pageoutd.scanned;
  check Alcotest.int "second chances" second_chances
    s.Pageoutd.second_chances;
  check Alcotest.int "pages swapped" swapped s.Pageoutd.swapped

let test_swapd_reclaims_cold () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let daemon, dev = make_daemon kernel asp in
      let addr = Mm_compat.mmap asp ~len:(64 * page) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(64 * page) ~write:true;
      (* Pass 1 strips accessed bits; pass 2 reclaims cold pages. *)
      let got = Pageoutd.pressure daemon ~target_pages:16 in
      check Alcotest.int "reclaimed the target" 16 got;
      check Alcotest.bool "second chances given" true
        ((Pageoutd.stats daemon).Pageoutd.second_chances > 0);
      check Alcotest.int "device holds 16 blocks" 16 (Blockdev.used_blocks dev);
      (* Both passes saw all 64 pages; only the first found them hot. *)
      check_clock daemon ~scanned:128 ~second_chances:64 ~swapped:16)

let test_swapd_spares_hot () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let daemon, _dev = make_daemon kernel asp in
      let addr = Mm_compat.mmap asp ~len:(32 * page) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr ~len:(32 * page) ~write:true;
      let hot = addr in
      (* Strip everyone's accessed bit, then re-touch only the hot page. *)
      Pageoutd.age daemon;
      check_clock daemon ~scanned:32 ~second_chances:32 ~swapped:0;
      Mm.timer_tick asp;
      Mm.touch asp ~vaddr:hot ~write:false;
      (* Now reclaim: the hot page must survive this pass. *)
      ignore (Pageoutd.pressure daemon ~target_pages:31);
      (match status_at asp hot with
      | Status.Mapped _ -> ()
      | s -> Alcotest.failf "hot page was swapped: %s" (Status.to_string s));
      (match status_at asp (addr + (5 * page)) with
      | Status.Swapped _ -> ()
      | s -> Alcotest.failf "cold page not swapped: %s" (Status.to_string s));
      check_clock daemon ~scanned:64 ~second_chances:33 ~swapped:31)

let test_swapd_roundtrip () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let daemon, dev = make_daemon kernel asp in
      let addr = Mm_compat.mmap asp ~len:(16 * page) ~perm:Perm.rw () in
      for i = 0 to 15 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(100 + i)
      done;
      ignore (Pageoutd.pressure daemon ~target_pages:16);
      check_clock daemon ~scanned:32 ~second_chances:16 ~swapped:16;
      (* Every page faults back in with its data. *)
      for i = 0 to 15 do
        check Alcotest.int
          (Printf.sprintf "page %d data" i)
          (100 + i)
          (Mm.read_value asp ~vaddr:(addr + (i * page)))
      done;
      check Alcotest.int "all blocks freed after swap-in" 0
        (Blockdev.used_blocks dev);
      Addr_space.check_well_formed asp)

let test_swapd_skips_shared () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let daemon, _dev = make_daemon kernel asp in
      let addr = Mm_compat.mmap asp ~len:page ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:addr ~value:1;
      let child = Mm.fork asp in
      (* COW-shared pages are unreclaimable by the simple daemon: two dry
         passes that never even count the page. *)
      let got = Pageoutd.pressure daemon ~target_pages:1 in
      check Alcotest.int "nothing reclaimed" 0 got;
      check_clock daemon ~scanned:0 ~second_chances:0 ~swapped:0;
      ignore child)

let () =
  Alcotest.run "thp-swapd"
    [
      ( "thp",
        [
          Alcotest.test_case "promote basic" `Quick test_promote_basic;
          Alcotest.test_case "rejects partial" `Quick
            test_promote_rejects_partial;
          Alcotest.test_case "rejects COW" `Quick test_promote_rejects_cow;
          Alcotest.test_case "promoted unmaps cleanly" `Quick
            test_promoted_page_unmaps;
          Alcotest.test_case "khugepaged" `Quick test_khugepaged_scans;
          Alcotest.test_case "auto-THP on fault" `Quick test_auto_thp;
        ] );
      ( "swapd",
        [
          Alcotest.test_case "reclaims cold" `Quick test_swapd_reclaims_cold;
          Alcotest.test_case "spares hot" `Quick test_swapd_spares_hot;
          Alcotest.test_case "roundtrip" `Quick test_swapd_roundtrip;
          Alcotest.test_case "skips shared" `Quick test_swapd_skips_shared;
        ] );
    ]
