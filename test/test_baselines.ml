(* Tests for the three baseline memory-management systems: Linux-style
   two-level abstraction, RadixVM, and NrOS. Checks both semantics
   (map/unmap/fault behaviour, COW on fork for Linux) and the locking
   structure (what serializes and what scales). *)

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm

let check = Alcotest.check
let page = 4096
let kib n = n * 1024
let mib n = n * 1024 * 1024

let in_sim ?(ncpus = 1) f =
  let w = Engine.create ~ncpus in
  let result = ref None in
  Engine.spawn w ~cpu:0 (fun () -> result := Some (f ()));
  Engine.run w;
  match !result with Some v -> v | None -> Alcotest.fail "fiber died"

(* -- VMA tree -- *)

let test_vma_tree_basics () =
  in_sim (fun () ->
      let phys = Mm_phys.Phys.create () in
      let t = Mm_linux.Vma.create phys in
      let _ = Mm_linux.Vma.insert t ~start:0x1000 ~end_:0x5000 ~perm:Perm.rw in
      let _ = Mm_linux.Vma.insert t ~start:0x8000 ~end_:0x9000 ~perm:Perm.r in
      (match Mm_linux.Vma.find t 0x2000 with
      | Some v -> check Alcotest.int "vma start" 0x1000 v.Mm_linux.Vma.v_start
      | None -> Alcotest.fail "vma not found");
      check Alcotest.bool "gap not found" true
        (Mm_linux.Vma.find t 0x6000 = None);
      check Alcotest.int "two vmas" 2 (Mm_linux.Vma.count t))

let test_vma_split_on_remove () =
  in_sim (fun () ->
      let phys = Mm_phys.Phys.create () in
      let t = Mm_linux.Vma.create phys in
      let _ = Mm_linux.Vma.insert t ~start:0x1000 ~end_:0x9000 ~perm:Perm.rw in
      (* Punching a hole splits the VMA into two. *)
      ignore (Mm_linux.Vma.remove_range t ~lo:0x4000 ~hi:0x5000);
      check Alcotest.int "split into two" 2 (Mm_linux.Vma.count t);
      check Alcotest.bool "hole empty" true (Mm_linux.Vma.find t 0x4000 = None);
      (match Mm_linux.Vma.find t 0x3000 with
      | Some v -> check Alcotest.int "left end" 0x4000 v.Mm_linux.Vma.v_end
      | None -> Alcotest.fail "left part missing");
      match Mm_linux.Vma.find t 0x8000 with
      | Some v -> check Alcotest.int "right start" 0x5000 v.Mm_linux.Vma.v_start
      | None -> Alcotest.fail "right part missing")

let vma_tree_random_prop =
  QCheck.Test.make ~name:"vma tree matches interval list" ~count:100
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 30)
        (pair (int_bound 60) (int_range 1 8)))
    (fun ops ->
      in_sim (fun () ->
          let phys = Mm_phys.Phys.create () in
          let t = Mm_linux.Vma.create phys in
          let reference = Hashtbl.create 64 in
          List.iteri
            (fun i (start_page, len_pages) ->
              let lo = (start_page + 1) * page in
              let hi = lo + (len_pages * page) in
              if i mod 2 = 0 then begin
                ignore (Mm_linux.Vma.remove_range t ~lo ~hi);
                ignore (Mm_linux.Vma.insert t ~start:lo ~end_:hi ~perm:Perm.rw);
                for p = lo / page to (hi / page) - 1 do
                  Hashtbl.replace reference p true
                done
              end
              else begin
                ignore (Mm_linux.Vma.remove_range t ~lo ~hi);
                for p = lo / page to (hi / page) - 1 do
                  Hashtbl.remove reference p
                done
              end)
            ops;
          let ok = ref true in
          for p = 0 to 80 do
            let in_tree = Mm_linux.Vma.find t (p * page) <> None in
            let in_ref = Hashtbl.mem reference p in
            if in_tree <> in_ref then ok := false
          done;
          !ok))

(* -- Maple tree (the VMA store) -- *)

module Maple = Mm_linux.Maple

type iv = { lo : int; hi : int }

let make_maple () = Maple.create ~start:(fun v -> v.lo) ~stop:(fun v -> v.hi)

let test_maple_basics () =
  let t = make_maple () in
  Maple.insert t { lo = 10; hi = 20 };
  Maple.insert t { lo = 30; hi = 40 };
  Maple.insert t { lo = 0; hi = 5 };
  check Alcotest.int "count" 3 (Maple.count t);
  (match Maple.find t 15 with
  | Some v -> check Alcotest.int "found" 10 v.lo
  | None -> Alcotest.fail "not found");
  check Alcotest.bool "gap" true (Maple.find t 25 = None);
  check Alcotest.bool "removed" true (Maple.remove t 10);
  check Alcotest.bool "already gone" false (Maple.remove t 10);
  check Alcotest.bool "hole" true (Maple.find t 15 = None);
  Maple.check_invariants t

let test_maple_stays_shallow () =
  (* The whole point of wide nodes: hundreds of intervals, tiny height. *)
  let t = make_maple () in
  for i = 0 to 999 do
    Maple.insert t { lo = i * 10; hi = (i * 10) + 5 }
  done;
  Maple.check_invariants t;
  check Alcotest.int "1000 items" 1000 (Maple.count t);
  check Alcotest.bool
    (Printf.sprintf "height %d <= 4" (Maple.height t))
    true
    (Maple.height t <= 4)

let test_maple_overlapping () =
  let t = make_maple () in
  for i = 0 to 99 do
    Maple.insert t { lo = i * 10; hi = (i * 10) + 8 }
  done;
  let hits = Maple.overlapping t ~lo:95 ~hi:125 in
  (* Intervals [90,98) [100,108) [110,118) [120,128) intersect [95,125). *)
  Alcotest.(check (list int))
    "overlap starts" [ 90; 100; 110; 120 ]
    (List.map (fun v -> v.lo) hits)

let maple_vs_reference_prop =
  QCheck.Test.make ~name:"maple agrees with a sorted-list reference" ~count:100
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 120)
        (pair (int_bound 300) bool))
    (fun ops ->
      let t = make_maple () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (slot, ins) ->
          let lo = slot * 4 and hi = (slot * 4) + 3 in
          if ins then begin
            if not (Hashtbl.mem reference lo) then begin
              Maple.insert t { lo; hi };
              Hashtbl.replace reference lo hi
            end
          end
          else begin
            let was = Hashtbl.mem reference lo in
            let got = Maple.remove t lo in
            if was <> got then failwith "remove disagreed";
            Hashtbl.remove reference lo
          end)
        ops;
      Maple.check_invariants t;
      (* Point lookups agree over the whole key space. *)
      let ok = ref (Maple.count t = Hashtbl.length reference) in
      for addr = 0 to 1210 do
        let in_ref =
          Hashtbl.fold
            (fun lo hi acc -> acc || (lo <= addr && addr < hi))
            reference false
        in
        let in_tree = Maple.find t addr <> None in
        if in_ref <> in_tree then ok := false
      done;
      !ok)

(* -- Linux semantics -- *)

let test_linux_map_touch_unmap () =
  in_sim (fun () ->
      let t = Mm_linux.Linux_mm.create ~ncpus:1 () in
      let addr = Mm_linux.Linux_mm.mmap t ~len:(kib 16) ~perm:Perm.rw () in
      Mm_linux.Linux_mm.touch_range t ~addr ~len:(kib 16) ~write:true;
      Mm_linux.Linux_mm.write_value t ~vaddr:addr ~value:11;
      check Alcotest.int "value" 11 (Mm_linux.Linux_mm.read_value t ~vaddr:addr);
      Mm_linux.Linux_mm.munmap t ~addr ~len:(kib 16);
      (match Mm_linux.Linux_mm.page_fault t ~vaddr:addr ~write:false with
      | Mm_linux.Linux_mm.Sigsegv -> ()
      | Mm_linux.Linux_mm.Handled -> Alcotest.fail "unmapped must segfault");
      Mm_linux.Linux_mm.check_well_formed t)

let test_linux_fault_perm () =
  in_sim (fun () ->
      let t = Mm_linux.Linux_mm.create ~ncpus:1 () in
      let addr = Mm_linux.Linux_mm.mmap t ~len:(kib 16) ~perm:Perm.r () in
      (match Mm_linux.Linux_mm.page_fault t ~vaddr:addr ~write:true with
      | Mm_linux.Linux_mm.Sigsegv -> ()
      | Mm_linux.Linux_mm.Handled -> Alcotest.fail "write to r-- must segfault");
      match Mm_linux.Linux_mm.page_fault t ~vaddr:addr ~write:false with
      | Mm_linux.Linux_mm.Handled -> ()
      | Mm_linux.Linux_mm.Sigsegv -> Alcotest.fail "read fault must succeed")

let test_linux_fork_cow () =
  in_sim (fun () ->
      let t = Mm_linux.Linux_mm.create ~ncpus:1 () in
      let addr = Mm_linux.Linux_mm.mmap t ~len:(kib 16) ~perm:Perm.rw () in
      Mm_linux.Linux_mm.write_value t ~vaddr:addr ~value:21;
      let child = Mm_linux.Linux_mm.fork t in
      check Alcotest.int "child reads parent" 21
        (Mm_linux.Linux_mm.read_value child ~vaddr:addr);
      Mm_linux.Linux_mm.write_value child ~vaddr:addr ~value:22;
      check Alcotest.int "parent unchanged" 21
        (Mm_linux.Linux_mm.read_value t ~vaddr:addr);
      check Alcotest.int "child changed" 22
        (Mm_linux.Linux_mm.read_value child ~vaddr:addr))

let test_linux_mprotect () =
  in_sim (fun () ->
      let t = Mm_linux.Linux_mm.create ~ncpus:1 () in
      let addr = Mm_linux.Linux_mm.mmap t ~len:(kib 16) ~perm:Perm.rw () in
      Mm_linux.Linux_mm.touch t ~vaddr:addr ~write:true;
      Mm_linux.Linux_mm.mprotect t ~addr ~len:(kib 16) ~perm:Perm.r;
      (* mprotect splits no VMA here (exact range) but must rewrite PTEs. *)
      match Mm_linux.Linux_mm.page_fault t ~vaddr:addr ~write:true with
      | Mm_linux.Linux_mm.Sigsegv -> ()
      | Mm_linux.Linux_mm.Handled -> Alcotest.fail "write after mprotect r--")

let test_linux_unmap_virt_splits () =
  in_sim (fun () ->
      let t = Mm_linux.Linux_mm.create ~ncpus:1 () in
      let addr = Mm_linux.Linux_mm.mmap t ~len:(mib 2) ~perm:Perm.rw () in
      let before = Mm_linux.Linux_mm.vma_count t in
      (* munmap of an interior never-faulted range must split the VMA —
         the cost the paper blames for Linux's unmap-virt result. *)
      Mm_linux.Linux_mm.munmap t ~addr:(addr + kib 64) ~len:(kib 16);
      check Alcotest.int "vma split" (before + 1) (Mm_linux.Linux_mm.vma_count t))

(* -- Linux locking structure -- *)

let test_linux_mmap_serializes () =
  (* Concurrent mmaps all take the mmap_lock writer side: the total time
     must grow roughly linearly with the thread count. *)
  let run ncpus =
    let w = Engine.create ~ncpus in
    let t = Mm_linux.Linux_mm.create ~ncpus () in
    for cpu = 0 to ncpus - 1 do
      Engine.spawn w ~cpu (fun () ->
          for _ = 1 to 10 do
            let a = Mm_linux.Linux_mm.mmap t ~len:(kib 16) ~perm:Perm.rw () in
            Mm_linux.Linux_mm.munmap t ~addr:a ~len:(kib 16)
          done)
    done;
    Engine.run w;
    Engine.max_time w
  in
  let t1 = run 1 and t8 = run 8 in
  check Alcotest.bool
    (Printf.sprintf "8-way mmap near-serial (1: %d, 8: %d)" t1 t8)
    true
    (t8 > 5 * t1)

let test_linux_pf_scales_on_disjoint_vmas () =
  (* Faults on distinct VMAs take distinct per-VMA locks: parallel faults
     must be much faster than serial, though the shared mm accounting
     line keeps them from perfect scaling. *)
  let prep ncpus =
    let t = Mm_linux.Linux_mm.create ~ncpus () in
    let w = Engine.create ~ncpus in
    Engine.spawn w ~cpu:0 (fun () ->
        for i = 0 to ncpus - 1 do
          ignore
            (Mm_linux.Linux_mm.mmap t
               ~addr:(mib (256 * (i + 1)))
               ~len:(kib 256) ~perm:Perm.rw ())
        done);
    Engine.run w;
    t
  in
  let serial =
    let t = prep 1 in
    let w = Engine.create ~ncpus:1 in
    Engine.spawn w ~cpu:0 (fun () ->
        for i = 0 to 7 do
          Mm_linux.Linux_mm.touch_range t
            ~addr:(mib 256)
            ~len:(kib 256) ~write:true;
          ignore i;
          Mm_linux.Linux_mm.munmap t ~addr:(mib 256) ~len:(kib 256);
          ignore
            (Mm_linux.Linux_mm.mmap t ~addr:(mib 256) ~len:(kib 256)
               ~perm:Perm.rw ())
        done);
    Engine.run w;
    Engine.max_time w
  in
  let parallel =
    let t = prep 8 in
    let w = Engine.create ~ncpus:8 in
    for cpu = 0 to 7 do
      Engine.spawn w ~cpu (fun () ->
          Mm_linux.Linux_mm.touch_range t
            ~addr:(mib (256 * (cpu + 1)))
            ~len:(kib 256) ~write:true)
    done;
    Engine.run w;
    Engine.max_time w
  in
  check Alcotest.bool
    (Printf.sprintf "parallel faults faster (serial %d, parallel %d)" serial
       parallel)
    true (parallel < serial)

(* -- RadixVM -- *)

let test_radixvm_semantics () =
  in_sim (fun () ->
      let t = Mm_radixvm.Radixvm.create ~ncpus:1 () in
      let addr = Mm_radixvm.Radixvm.mmap t ~len:(kib 16) ~perm:Perm.rw () in
      Mm_radixvm.Radixvm.touch_range t ~addr ~len:(kib 16) ~write:true;
      Mm_radixvm.Radixvm.munmap t ~addr ~len:(kib 16);
      match Mm_radixvm.Radixvm.page_fault t ~vaddr:addr ~write:false with
      | Mm_radixvm.Radixvm.Sigsegv -> ()
      | Mm_radixvm.Radixvm.Handled -> Alcotest.fail "unmapped must segfault")

let test_radixvm_per_core_pts () =
  let ncpus = 4 in
  let w = Engine.create ~ncpus in
  let t = Mm_radixvm.Radixvm.create ~ncpus () in
  let addr = mib 256 in
  Engine.spawn w ~cpu:0 (fun () ->
      ignore (Mm_radixvm.Radixvm.mmap t ~addr ~len:(kib 64) ~perm:Perm.rw ()));
  Engine.run w;
  let w = Engine.create ~ncpus in
  for cpu = 0 to ncpus - 1 do
    Engine.spawn w ~cpu (fun () ->
        Mm_radixvm.Radixvm.touch_range t ~addr ~len:(kib 64) ~write:true)
  done;
  Engine.run w;
  (* Every core faulted the same region: each has a private page table, so
     the replicated PT bytes are ~4x one core's. *)
  let bytes = Mm_radixvm.Radixvm.replicated_pt_bytes t in
  check Alcotest.bool
    (Printf.sprintf "replicated pt bytes %d" bytes)
    true
    (bytes >= ncpus * 4 * page)

let test_radixvm_unmap_clears_all_replicas () =
  let ncpus = 2 in
  let t = Mm_radixvm.Radixvm.create ~ncpus () in
  let addr = mib 256 in
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      ignore (Mm_radixvm.Radixvm.mmap t ~addr ~len:(kib 16) ~perm:Perm.rw ()));
  Engine.run w;
  let w = Engine.create ~ncpus in
  for cpu = 0 to 1 do
    Engine.spawn w ~cpu (fun () ->
        Mm_radixvm.Radixvm.touch_range t ~addr ~len:(kib 16) ~write:true)
  done;
  Engine.run w;
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      Mm_radixvm.Radixvm.munmap t ~addr ~len:(kib 16));
  Engine.run w;
  (* After unmap on cpu 0, cpu 1 must fault (its replica was purged too). *)
  let w = Engine.create ~ncpus in
  let faulted = ref false in
  Engine.spawn w ~cpu:1 (fun () ->
      try Mm_radixvm.Radixvm.touch t ~vaddr:addr ~write:false
      with Mm_radixvm.Radixvm.Fault _ -> faulted := true);
  Engine.run w;
  check Alcotest.bool "replica purged" true !faulted

(* -- NrOS -- *)

let test_nros_semantics () =
  in_sim (fun () ->
      let t = Mm_nros.Nros.create ~ncpus:1 () in
      let addr = Mm_nros.Nros.mmap t ~len:(kib 16) ~perm:Perm.rw () in
      (* Eager backing: touching never faults. *)
      Mm_nros.Nros.touch_range t ~addr ~len:(kib 16) ~write:true;
      Mm_nros.Nros.munmap t ~addr ~len:(kib 16);
      (try
         Mm_nros.Nros.touch t ~vaddr:addr ~write:false;
         Alcotest.fail "touch after munmap must fault"
       with Mm_nros.Nros.Fault _ -> ());
      check Alcotest.int "log has two ops" 2 (Mm_nros.Nros.log_length t))

let test_nros_replicas_catch_up () =
  let ncpus = 4 in
  let t = Mm_nros.Nros.create ~ncpus () in
  let addr = ref 0 in
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      addr := Mm_nros.Nros.mmap t ~len:(kib 16) ~perm:Perm.rw ());
  Engine.run w;
  (* cpu 3 is on the other replica: its touch must replay the log. *)
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:3 (fun () ->
      Mm_nros.Nros.touch t ~vaddr:!addr ~write:true);
  Engine.run w;
  check Alcotest.bool "both replicas populated" true
    (Mm_nros.Nros.replicated_pt_bytes t >= 2 * 4 * page)

(* A lagging replica replays an unmap after the frame it names was freed
   and handed out again: only the entry's first applier may release the
   frame, or the replay frees a page that is still mapped elsewhere. *)
let test_nros_lagging_replica_no_double_free () =
  let ncpus = 2 in
  let t = Mm_nros.Nros.create ~ncpus () in
  let on_cpu cpu f =
    let w = Engine.create ~ncpus in
    let r = ref None in
    Engine.spawn w ~cpu (fun () -> r := Some (f ()));
    Engine.run w;
    Option.get !r
  in
  let mmap () = Mm_nros.Nros.mmap t ~len:page ~perm:Perm.rw () in
  let second =
    on_cpu 0 (fun () ->
        let first = mmap () in
        Mm_nros.Nros.munmap t ~addr:first ~len:page;
        let second = mmap () in
        Mm_nros.Nros.write_value t ~vaddr:second ~value:42;
        second)
  in
  (* cpu 1's replica replays map, unmap, map. *)
  on_cpu 1 (fun () -> Mm_nros.Nros.touch t ~vaddr:second ~write:false);
  on_cpu 0 (fun () ->
      let third = mmap () in
      Mm_nros.Nros.write_value t ~vaddr:third ~value:99);
  check Alcotest.int "second region keeps its value" 42
    (on_cpu 0 (fun () -> Mm_nros.Nros.read_value t ~vaddr:second))

let test_nros_log_serializes () =
  let run ncpus =
    let w = Engine.create ~ncpus in
    let t = Mm_nros.Nros.create ~ncpus () in
    for cpu = 0 to ncpus - 1 do
      Engine.spawn w ~cpu (fun () ->
          for _ = 1 to 10 do
            let a = Mm_nros.Nros.mmap t ~len:(kib 16) ~perm:Perm.rw () in
            Mm_nros.Nros.munmap t ~addr:a ~len:(kib 16)
          done)
    done;
    Engine.run w;
    Engine.max_time w
  in
  let t1 = run 1 and t8 = run 8 in
  check Alcotest.bool
    (Printf.sprintf "nros near-serial (1: %d, 8: %d)" t1 t8)
    true
    (t8 > 4 * t1)

(* -- Golden digest of NrOS's per-page loops --

   A 2-vCPU world that drives the three loops NrOS runs once per page:
   replaying an mmap into a replica, replaying an munmap (including
   pages with no leaf page, whose walk stops part way), and fork's copy
   into each child replica. The mapping starts and ends inside leaf
   pages, spans four of them and crosses a 1 GiB boundary; the unmap
   also covers two 2 MiB blocks with no leaf page and two ranges whose
   walk stops at levels 3 and 4. Simulated behaviour is deterministic;
   host-only performance work must leave the digest unchanged. *)

let nros_golden_digest = "89abfbdd3c991255f36b224ef312d7ea"

let test_nros_golden_digest () =
  let module N = Mm_nros.Nros in
  let ncpus = 2 in
  let out = Buffer.create 65536 in
  let on_cpu cpu f =
    let w = Engine.create ~ncpus in
    let r = ref None in
    Engine.spawn w ~cpu (fun () -> r := Some (f ()));
    Engine.run w;
    Printf.bprintf out "cycles %d %d\n" (Engine.cpu_time w 0)
      (Engine.cpu_time w 1);
    Option.get !r
  in
  let block = mib 2 and gib = 1024 * mib 1 in
  let lo = (2 * gib) - block - (5 * page) in
  let hi = lo + (2 * block) + (10 * page) in
  let unmap_lo = lo - (2 * block) and unmap_hi = lo + block + (7 * page) in
  let second = gib + (3 * page) and second_len = 600 * page in
  let states t ~lo ~hi =
    for cpu = 0 to ncpus - 1 do
      on_cpu cpu (fun () ->
          let v = ref lo in
          while !v < hi do
            Buffer.add_char out
              (match N.page_state t ~vaddr:!v with
              | `Unmapped -> '.'
              | `Lazy _ -> 'l'
              | `Resident true -> 'w'
              | `Resident false -> 'r');
            v := !v + page
          done;
          Buffer.add_char out '\n')
    done
  in
  let sizes t =
    Printf.bprintf out "log %d pt_bytes %d\n" (N.log_length t)
      (N.replicated_pt_bytes t)
  in
  let t = N.create ~ncpus () in
  on_cpu 0 (fun () -> ignore (N.mmap t ~addr:lo ~len:(hi - lo) ~perm:Perm.rw ()));
  (* cpu 1's replica replays the map. *)
  on_cpu 1 (fun () ->
      N.touch t ~vaddr:lo ~write:true;
      N.touch t ~vaddr:(hi - page) ~write:false);
  on_cpu 0 (fun () ->
      N.write_value t ~vaddr:(lo + (2 * block)) ~value:7;
      N.write_value t ~vaddr:(hi - page) ~value:11;
      N.munmap t ~addr:unmap_lo ~len:(unmap_hi - unmap_lo);
      N.munmap t ~addr:((3 * gib) + (5 * page)) ~len:(3 * page);
      N.munmap t ~addr:((512 * gib) + page) ~len:(2 * page));
  sizes t;
  (* cpu 1's replica replays the three unmaps, then logs a second map
     that cpu 0's replica replays when it forks. *)
  on_cpu 1 (fun () ->
      N.touch t ~vaddr:(hi - page) ~write:false;
      ignore (N.mmap t ~addr:second ~len:second_len ~perm:Perm.r ()));
  let child = on_cpu 0 (fun () -> N.fork t) in
  sizes t;
  sizes child;
  states t ~lo:(unmap_lo - page) ~hi:(hi + (2 * page));
  states t ~lo:(second - page) ~hi:(second + second_len + page);
  states child ~lo:(unmap_lo - page) ~hi:(hi + (2 * page));
  states child ~lo:(second - page) ~hi:(second + second_len + page);
  on_cpu 1 (fun () ->
      Printf.bprintf out "values %d %d\n"
        (N.read_value child ~vaddr:(lo + (2 * block)))
        (N.read_value child ~vaddr:(hi - page)));
  sizes child;
  on_cpu 0 (fun () ->
      N.destroy child;
      N.destroy t);
  check Alcotest.string "nros world digest" nros_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents out)))

let () =
  Alcotest.run "baselines"
    [
      ( "maple",
        [
          Alcotest.test_case "basics" `Quick test_maple_basics;
          Alcotest.test_case "stays shallow" `Quick test_maple_stays_shallow;
          Alcotest.test_case "overlapping" `Quick test_maple_overlapping;
          QCheck_alcotest.to_alcotest maple_vs_reference_prop;
        ] );
      ( "vma-tree",
        [
          Alcotest.test_case "basics" `Quick test_vma_tree_basics;
          Alcotest.test_case "split on remove" `Quick test_vma_split_on_remove;
          QCheck_alcotest.to_alcotest vma_tree_random_prop;
        ] );
      ( "linux",
        [
          Alcotest.test_case "map/touch/unmap" `Quick
            test_linux_map_touch_unmap;
          Alcotest.test_case "fault permissions" `Quick test_linux_fault_perm;
          Alcotest.test_case "fork COW" `Quick test_linux_fork_cow;
          Alcotest.test_case "mprotect" `Quick test_linux_mprotect;
          Alcotest.test_case "unmap-virt splits VMA" `Quick
            test_linux_unmap_virt_splits;
          Alcotest.test_case "mmap serializes" `Quick
            test_linux_mmap_serializes;
          Alcotest.test_case "PF scales on disjoint VMAs" `Quick
            test_linux_pf_scales_on_disjoint_vmas;
        ] );
      ( "radixvm",
        [
          Alcotest.test_case "semantics" `Quick test_radixvm_semantics;
          Alcotest.test_case "per-core PTs" `Quick test_radixvm_per_core_pts;
          Alcotest.test_case "unmap clears replicas" `Quick
            test_radixvm_unmap_clears_all_replicas;
        ] );
      ( "nros",
        [
          Alcotest.test_case "semantics" `Quick test_nros_semantics;
          Alcotest.test_case "replicas catch up" `Quick
            test_nros_replicas_catch_up;
          Alcotest.test_case "log serializes" `Quick test_nros_log_serializes;
          Alcotest.test_case "lagging replica no double free" `Quick
            test_nros_lagging_replica_no_double_free;
        ] );
      ( "golden",
        [
          Alcotest.test_case "nros per-page loops digest" `Quick
            test_nros_golden_digest;
        ] );
    ]
