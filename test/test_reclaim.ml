(* Tests for the pager layer and reclaim under pressure: provider
   round-trips through [Pager.ops], mlock wiring surviving forced
   page-out storms, reclaim racing COW fork, and the RLIMIT_MEMLOCK
   accounting — the wired/value-model guarantees behind [Pageoutd]. *)

open Cortenmm
module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm
module Errno = Mm_hal.Errno
module Frame = Mm_phys.Frame
module Phys = Mm_phys.Phys

let check = Alcotest.check
let page = 4096

(* Run [f] on [cpu] of a fresh simulation and return its result. *)
let in_sim ?(ncpus = 1) ?(cpu = 0) f =
  let w = Engine.create ~ncpus in
  let result = ref None in
  Engine.spawn w ~cpu (fun () -> result := Some (f ()));
  Engine.run w;
  match !result with Some v -> v | None -> Alcotest.fail "fiber died"

let make_asp ?(ncpus = 1) ?(cfg = Config.adv) () =
  let kernel = Kernel.create ~ncpus () in
  (kernel, Addr_space.create kernel cfg)

let both_protocols f () = List.iter (fun cfg -> f cfg) [ Config.adv; Config.rw ]

let proto_case name f =
  Alcotest.test_case name `Quick (both_protocols (fun cfg -> f cfg))

let status_at asp vaddr =
  Addr_space.with_lock asp ~lo:vaddr ~hi:(vaddr + page) (fun c ->
      Addr_space.query c vaddr)

(* -- Provider round-trips through the ops record -- *)

let test_anon_pager_roundtrip () =
  in_sim (fun () ->
      let phys = Phys.create () in
      let dev = Blockdev.create ~name:"swap-rt" () in
      let p = Vm_object.pager ~dev ~phys in
      check Alcotest.string "provider name" "anon" p.Pager.name;
      match p.Pager.put_pages [ (0, 4242) ] with
      | [ block ] ->
        check Alcotest.bool "swap block present" true
          (p.Pager.has_page ~page_index:block);
        let frame = p.Pager.get_page ~page_index:block in
        check Alcotest.int "contents survive the round-trip" 4242
          (Phys.contents phys frame);
        check Alcotest.bool "block freed after swap-in" false
          (p.Pager.has_page ~page_index:block);
        Phys.free phys frame
      | blocks -> Alcotest.failf "expected one block, got %d" (List.length blocks))

let test_file_pager_roundtrip () =
  in_sim (fun () ->
      List.iter
        (fun (file, expect_name) ->
          let phys = Phys.create () in
          let p = File.pager file phys in
          check Alcotest.string "provider name" expect_name p.Pager.name;
          let f = p.Pager.get_page ~page_index:1 in
          Phys.set_contents phys f 777;
          (match p.Pager.put_pages [ (1, 777) ] with
          | [ 1 ] -> ()
          | _ -> Alcotest.fail "file pager must keep its page index");
          File.drop_page file phys ~page_index:1;
          check Alcotest.bool "disk copy survives the drop" true
            (p.Pager.has_page ~page_index:1);
          let f' = p.Pager.get_page ~page_index:1 in
          check Alcotest.int "refault reads the written-back token" 777
            (Phys.contents phys f');
          p.Pager.dealloc ())
        [
          (File.regular ~name:"rt.dat", "file");
          (File.shm (), "shm");
        ])

(* -- Wired pages survive a forced full-pressure storm -- *)

let test_wired_survive_storm cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let dev = Blockdev.create ~name:"swap-storm" () in
      let d = Pageoutd.create kernel ~dev () in
      Pageoutd.register_space d asp;
      let npages = 16 and wired = 8 in
      let addr = Mm_compat.mmap asp ~len:(npages * page) ~perm:Perm.rw () in
      for i = 0 to npages - 1 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(100 + i)
      done;
      Mm_compat.mlock asp ~addr ~len:(wired * page);
      let reclaimed = Pageoutd.pressure d ~target_pages:(4 * npages) in
      check Alcotest.bool "storm reclaimed something" true (reclaimed > 0);
      (* Wired pages must still be resident after the storm... *)
      for i = 0 to wired - 1 do
        match status_at asp (addr + (i * page)) with
        | Status.Mapped _ -> ()
        | s ->
          Alcotest.failf "wired page %d lost residency: %s" i
            (Status.to_string s)
      done;
      (* ...while at least one unwired page was pushed to swap. *)
      let evicted = ref 0 in
      for i = wired to npages - 1 do
        match status_at asp (addr + (i * page)) with
        | Status.Swapped _ -> incr evicted
        | _ -> ()
      done;
      check Alcotest.bool "unwired pages evicted" true (!evicted > 0);
      (* Every token survives: wired in place, evicted via refault. *)
      for i = 0 to npages - 1 do
        check Alcotest.int "token survives the storm" (100 + i)
          (Mm.read_value asp ~vaddr:(addr + (i * page)))
      done;
      Mm_compat.munlock asp ~addr ~len:(wired * page);
      check Alcotest.int "wired accounting drains" 0 (Kernel.wired_pages kernel);
      Addr_space.check_well_formed asp)

(* -- Reclaim racing COW fork on the shadow chain -- *)

let test_reclaim_vs_cow_fork cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let dev = Blockdev.create ~name:"swap-cow" () in
      let d = Pageoutd.create kernel ~dev () in
      Pageoutd.register_space d asp;
      let npages = 8 in
      let addr = Mm_compat.mmap asp ~len:(npages * page) ~perm:Perm.rw () in
      for i = 0 to npages - 1 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(1000 + i)
      done;
      let child = Mm.fork asp in
      Pageoutd.register_space d child;
      let _ = Pageoutd.pressure d ~target_pages:(4 * npages) in
      (* Parent COW-breaks every page with fresh tokens while the
         pre-fork frames sit on swap... *)
      for i = 0 to npages - 1 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(2000 + i)
      done;
      (* ...the child must still observe the pre-fork values, and the
         parent its overwrites — the (proc, id, page) value model. *)
      for i = 0 to npages - 1 do
        check Alcotest.int "child sees pre-fork token" (1000 + i)
          (Mm.read_value child ~vaddr:(addr + (i * page)));
        check Alcotest.int "parent sees its overwrite" (2000 + i)
          (Mm.read_value asp ~vaddr:(addr + (i * page)))
      done;
      Pageoutd.unregister_space d child;
      Mm.destroy child;
      Addr_space.check_well_formed asp)

(* -- RLIMIT_MEMLOCK: EPERM beyond the limit, balanced accounting -- *)

let test_mlock_limit cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      Kernel.set_wired_limit kernel ~pages:4;
      let addr = Mm_compat.mmap asp ~len:(8 * page) ~perm:Perm.rw () in
      (match Mm.mlock_r asp ~addr ~len:(8 * page) with
      | Error Errno.EPERM -> ()
      | Ok () -> Alcotest.fail "mlock beyond RLIMIT_MEMLOCK must fail"
      | Error e -> Alcotest.failf "expected EPERM, got %s" (Errno.to_string e));
      (match Mm.mlock_r asp ~addr:0x7000_0000 ~len:page with
      | Error Errno.ENOMEM -> ()
      | _ -> Alcotest.fail "mlock over an unmapped range must be ENOMEM");
      (match Mm.mlock_r asp ~addr ~len:(4 * page) with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "mlock within the limit: %s" (Errno.to_string e));
      check Alcotest.int "wired accounting" 4 (Kernel.wired_pages kernel);
      Mm_compat.munlock asp ~addr ~len:(4 * page);
      check Alcotest.int "unwired accounting" 0 (Kernel.wired_pages kernel))

(* -- File page-out: writeback precedes the drop, refaults see data -- *)

let test_file_reclaim_writeback cfg =
  in_sim (fun () ->
      let kernel, asp = make_asp ~cfg () in
      let dev = Blockdev.create ~name:"swap-file" () in
      let d = Pageoutd.create kernel ~dev () in
      Pageoutd.register_space d asp;
      let file = File.shm () in
      Pageoutd.register_file d file;
      let addr =
        Mm_compat.mmap asp ~len:(4 * page) ~perm:Perm.rw
          ~backing:(Mm.Shared (file, 0)) ()
      in
      for i = 0 to 3 do
        Mm.write_value asp ~vaddr:(addr + (i * page)) ~value:(300 + i)
      done;
      let reclaimed = Pageoutd.pressure d ~target_pages:16 in
      check Alcotest.bool "cache pages reclaimed" true (reclaimed > 0);
      let stats = Pageoutd.stats d in
      check Alcotest.bool "dirty pages written back before the drop" true
        (stats.Pageoutd.file_written_back > 0);
      check Alcotest.bool "cache frames dropped" true
        (stats.Pageoutd.file_dropped > 0);
      (* Refault through the pager: the written-back tokens come back. *)
      for i = 0 to 3 do
        check Alcotest.int "token survives the page-out" (300 + i)
          (Mm.read_value asp ~vaddr:(addr + (i * page)))
      done;
      Addr_space.check_well_formed asp)

(* -- Concurrent reclaim: page-outs racing other vCPUs' accesses -- *)

(* A 2-vCPU Reclaim trace: each vCPU's pressure ops page out the regions
   the other vCPU is reading and writing. Every access must still be
   admitted — a page-out must leave no stale remote translation, and an
   access racing one must fault the page back in, not report SIGSEGV. *)
let test_two_cpu_reclaim_trace () =
  let module Wtrace = Mm_workloads.Trace in
  let trace =
    Wtrace.generate ~profile:Wtrace.Reclaim ~ncpus:2 ~ops_per_cpu:2_000
      ~seed:1
  in
  List.iter
    (fun cfg ->
      let s = Wtrace.replay ~kind:(Mm_workloads.System.Corten cfg) trace in
      check Alcotest.bool (Config.name cfg ^ " touches replayed") true
        (s.Wtrace.touches > 0);
      check Alcotest.int (Config.name cfg ^ " denied accesses") 0
        s.Wtrace.faults_denied)
    [ Config.rw; Config.adv ]

(* A page-out leaves no remote translation behind, even under LATR
   (CortenMM's default), where an ordinary unmap only queues the remote
   invalidation for the target's next timer tick. *)
let test_pageout_remote_shootdown cfg =
  let _, asp = make_asp ~ncpus:2 ~cfg () in
  let dev = Blockdev.create ~name:"swap-remote" () in
  let addr =
    in_sim ~ncpus:2 (fun () -> Mm_compat.mmap asp ~len:page ~perm:Perm.rw ())
  in
  in_sim ~ncpus:2 ~cpu:1 (fun () -> Mm.touch asp ~vaddr:addr ~write:true);
  check Alcotest.bool "page swapped out" true
    (in_sim ~ncpus:2 (fun () -> Mm.swap_out asp ~vaddr:addr ~dev));
  check Alcotest.bool "no translation left on the other cpu" true
    (Mm_tlb.Tlb.lookup (Addr_space.tlb asp) ~cpu:1 ~vpn:(addr / page)
       ~write:false
    = None)

(* The reclaim_storm mix on 8 vCPUs: the page-out daemon's accessed-bit
   clears race transactions that unmap the same leaves. *)
let test_reclaim_storm_8cpu () =
  let entry =
    match Mm_workloads.System.Registry.find "cortenmm-adv" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let r =
    Mm_serve.Serve.run ~backend:entry.r_backend
      ~mix:Mm_serve.Mix.reclaim_storm ~policy_name:"batched"
      ~policy:Mm_serve.Serve.batched_default ~ncpus:8 ~sessions:240 ~seed:42
      ()
  in
  check Alcotest.int "sessions served" 240 r.Mm_serve.Serve.r_sessions

(* -- Golden digest of a reclaim replay --

   A 2-vCPU Reclaim-profile trace replayed on both CortenMM protocols:
   the page-out clock scans every leaf, page-outs and mlock storms race
   the other vCPU's accesses, and exits tear the spaces down. Simulated
   behaviour is deterministic; host-only performance work must leave
   the digest unchanged. *)

let reclaim_replay_golden_digest = "c056947ab7831f0127018205c1179fba"

let test_reclaim_replay_golden_digest () =
  let module Wtrace = Mm_workloads.Trace in
  let trace =
    Wtrace.generate ~profile:Wtrace.Reclaim ~ncpus:2 ~ops_per_cpu:1_500
      ~seed:3
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun cfg ->
      let s = Wtrace.replay ~kind:(Mm_workloads.System.Corten cfg) trace in
      let r = s.Wtrace.result in
      Printf.bprintf buf "%s %d %d %.6f %d %d %d %d %d\n" (Config.name cfg)
        r.Mm_workloads.Runner.ops r.Mm_workloads.Runner.cycles
        r.Mm_workloads.Runner.ops_per_sec s.Wtrace.mmaps s.Wtrace.munmaps
        s.Wtrace.touches s.Wtrace.forks s.Wtrace.faults_denied)
    [ Config.rw; Config.adv ];
  check Alcotest.string "reclaim replay digest" reclaim_replay_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "reclaim"
    [
      ( "pager",
        [
          Alcotest.test_case "anon round-trip" `Quick test_anon_pager_roundtrip;
          Alcotest.test_case "file/shm round-trip" `Quick
            test_file_pager_roundtrip;
        ] );
      ( "pressure",
        [
          proto_case "wired pages survive a storm" test_wired_survive_storm;
          proto_case "reclaim racing COW fork" test_reclaim_vs_cow_fork;
          proto_case "RLIMIT_MEMLOCK accounting" test_mlock_limit;
          proto_case "file writeback before drop" test_file_reclaim_writeback;
        ] );
      ( "concurrent",
        [
          proto_case "page-out shoots remote TLBs down"
            test_pageout_remote_shootdown;
          Alcotest.test_case "2-vCPU reclaim trace admits every access"
            `Quick test_two_cpu_reclaim_trace;
          Alcotest.test_case "reclaim storm on 8 vCPUs completes" `Quick
            test_reclaim_storm_8cpu;
        ] );
      ( "golden",
        [
          Alcotest.test_case "reclaim replay digest" `Quick
            test_reclaim_replay_golden_digest;
        ] );
    ]
