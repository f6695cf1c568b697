(* Tests for mremap (move/grow/shrink) and madvise(MADV_DONTNEED). *)

open Cortenmm
module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm

let check = Alcotest.check
let page = 4096
let kib n = n * 1024

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

(* -- mremap -- *)

let test_mremap_grow_moves_data () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      for i = 0 to 3 do
        Mm.write_value asp ~vaddr:(a + (i * page)) ~value:(500 + i)
      done;
      let b = Mm.mremap asp ~addr:a ~old_len:(kib 16) ~new_len:(kib 64) in
      check Alcotest.bool "moved" true (b <> a);
      (* Data moved with the pages, no copy. *)
      for i = 0 to 3 do
        check Alcotest.int
          (Printf.sprintf "page %d data" i)
          (500 + i)
          (Mm.read_value asp ~vaddr:(b + (i * page)))
      done;
      (* The old range is gone. *)
      (match status_at asp a with
      | Status.Invalid -> ()
      | s -> Alcotest.failf "old range alive: %s" (Status.to_string s));
      (* The grown tail faults in on demand with the head's protection. *)
      Mm.write_value asp ~vaddr:(b + kib 32) ~value:9;
      check Alcotest.int "tail writable" 9 (Mm.read_value asp ~vaddr:(b + kib 32));
      Addr_space.check_well_formed asp)

let test_mremap_old_tlb_flushed () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:a ~value:1 (* TLB caches the old vaddr *);
      let _ = Mm.mremap asp ~addr:a ~old_len:(kib 16) ~new_len:(kib 32) in
      Mm.timer_tick asp;
      (* A stale hit on the old address would be a fault-free read. *)
      match Mm.touch asp ~vaddr:a ~write:false with
      | () -> Alcotest.fail "old translation survived the move"
      | exception Mm.Fault _ -> ())

let test_mremap_shrink () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:(kib 64) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr:a ~len:(kib 64) ~write:true;
      let b = Mm.mremap asp ~addr:a ~old_len:(kib 64) ~new_len:(kib 16) in
      check Alcotest.int "shrink in place" a b;
      (match status_at asp (a + kib 16) with
      | Status.Invalid -> ()
      | s -> Alcotest.failf "tail still alive: %s" (Status.to_string s));
      match status_at asp a with
      | Status.Mapped _ -> ()
      | s -> Alcotest.failf "head lost: %s" (Status.to_string s))

let test_mremap_moves_marks_and_swap () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let dev = Blockdev.create ~name:"swap" () in
      let a = Mm_compat.mmap asp ~len:(kib 16) ~perm:Perm.rw () in
      (* Page 0 resident, page 1 swapped, pages 2-3 unfaulted marks. *)
      Mm.write_value asp ~vaddr:a ~value:1;
      Mm.write_value asp ~vaddr:(a + page) ~value:2;
      ignore (Mm.swap_out asp ~vaddr:(a + page) ~dev);
      let b = Mm.mremap asp ~addr:a ~old_len:(kib 16) ~new_len:(kib 32) in
      check Alcotest.int "resident moved" 1 (Mm.read_value asp ~vaddr:b);
      check Alcotest.int "swap slot moved and faults back" 2
        (Mm.read_value asp ~vaddr:(b + page));
      Mm.write_value asp ~vaddr:(b + (2 * page)) ~value:3;
      check Alcotest.int "mark moved" 3 (Mm.read_value asp ~vaddr:(b + (2 * page)));
      Addr_space.check_well_formed asp)

let test_mremap_preserves_cow () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:page ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:a ~value:77;
      let child = Mm.fork asp in
      (* Parent mremaps its COW-shared page. *)
      let b = Mm.mremap asp ~addr:a ~old_len:page ~new_len:(2 * page) in
      check Alcotest.int "parent reads through move" 77
        (Mm.read_value asp ~vaddr:b);
      (* Writing must still break COW, not corrupt the child. *)
      Mm.write_value asp ~vaddr:b ~value:88;
      check Alcotest.int "child unaffected" 77 (Mm.read_value child ~vaddr:a);
      check Alcotest.int "parent sees write" 88 (Mm.read_value asp ~vaddr:b))

(* -- madvise(DONTNEED) -- *)

let test_madvise_drops_frames () =
  in_sim (fun () ->
      let kernel, asp = make_asp () in
      let anon () =
        (Mm_phys.Phys.usage kernel.Kernel.phys).Mm_phys.Phys.anon_bytes
      in
      let a = Mm_compat.mmap asp ~len:(kib 64) ~perm:Perm.rw () in
      Mm.touch_range asp ~addr:a ~len:(kib 64) ~write:true;
      let resident = anon () in
      Mm.madvise_dontneed asp ~addr:a ~len:(kib 64);
      check Alcotest.bool "frames dropped" true (anon () < resident);
      (* The region is still allocated: refaults read zeroes. *)
      check Alcotest.int "refault zero-filled" 0 (Mm.read_value asp ~vaddr:a);
      Addr_space.check_well_formed asp)

let test_madvise_data_gone () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:page ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:a ~value:123;
      Mm.madvise_dontneed asp ~addr:a ~len:page;
      check Alcotest.int "data discarded" 0 (Mm.read_value asp ~vaddr:a);
      (* Still writable afterwards. *)
      Mm.write_value asp ~vaddr:a ~value:5;
      check Alcotest.int "writable" 5 (Mm.read_value asp ~vaddr:a))

let test_madvise_spares_files () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let file = File.regular ~name:"data" in
      let a =
        Mm_compat.mmap asp ~backing:(Mm.File_private (file, 0)) ~len:(kib 16)
          ~perm:Perm.r ()
      in
      let v = Mm.read_value asp ~vaddr:a in
      Mm.madvise_dontneed asp ~addr:a ~len:(kib 16);
      (* File-backed pages are left alone by our DONTNEED. *)
      check Alcotest.int "file mapping intact" v (Mm.read_value asp ~vaddr:a))

let test_madvise_cow_safe () =
  in_sim (fun () ->
      let _, asp = make_asp () in
      let a = Mm_compat.mmap asp ~len:page ~perm:Perm.rw () in
      Mm.write_value asp ~vaddr:a ~value:42;
      let child = Mm.fork asp in
      Mm.madvise_dontneed asp ~addr:a ~len:page;
      (* The child still sees the shared data; the parent refaults zero
         and can write privately. *)
      check Alcotest.int "child keeps data" 42 (Mm.read_value child ~vaddr:a);
      check Alcotest.int "parent refaults zero" 0 (Mm.read_value asp ~vaddr:a);
      Mm.write_value asp ~vaddr:a ~value:7;
      check Alcotest.int "child still isolated" 42
        (Mm.read_value child ~vaddr:a))

let () =
  Alcotest.run "mremap-madvise"
    [
      ( "mremap",
        [
          Alcotest.test_case "grow moves data" `Quick
            test_mremap_grow_moves_data;
          Alcotest.test_case "old TLB flushed" `Quick
            test_mremap_old_tlb_flushed;
          Alcotest.test_case "shrink" `Quick test_mremap_shrink;
          Alcotest.test_case "marks and swap move" `Quick
            test_mremap_moves_marks_and_swap;
          Alcotest.test_case "COW preserved" `Quick test_mremap_preserves_cow;
        ] );
      ( "madvise",
        [
          Alcotest.test_case "drops frames" `Quick test_madvise_drops_frames;
          Alcotest.test_case "data discarded" `Quick test_madvise_data_gone;
          Alcotest.test_case "files spared" `Quick test_madvise_spares_files;
          Alcotest.test_case "COW safe" `Quick test_madvise_cow_safe;
        ] );
    ]
