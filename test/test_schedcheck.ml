(* Schedule-exploration harness: live checker units, schedule file
   roundtrips, clean exploration on both protocols, and mutant
   catching + shrinking + replay. *)

open Mm_schedcheck.Schedcheck
module Schedule = Mm_schedcheck.Schedule
module Live = Mm_verif.Live
module Event = Mm_obs.Event
module Trace = Mm_obs.Trace

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* -- Live checker units (events fed by hand, no engine) -- *)

let feed events =
  let live = Live.create ~ncpus:4 in
  List.iter (Live.observe live) events;
  live

(* A stamped event as the bus delivers it: [cpu] is the emitting vCPU. *)
let ev ?(cpu = 0) payload = { Event.seq = 0; time = 0; cpu; payload }

let mutex_acquired ~lock ~cpu =
  ev ~cpu (Event.Lock_acquire { lock; kind = Event.Mutex; wait = 0 })

let mutex_released ~lock ~cpu =
  ev ~cpu (Event.Lock_release { lock; kind = Event.Mutex; held = 0 })

let txn_locked ~asp ~cpu ~lo ~hi =
  ev ~cpu (Event.Cursor_lock { asp; lo; hi; locked = 1; span = 0 })

let txn_committed ~asp ~cpu ~lo ~hi =
  ev ~cpu (Event.Txn_committed { asp; lo; hi })

let test_live_mutex_clean () =
  let live =
    feed
      [
        mutex_acquired ~lock:1 ~cpu:0;
        mutex_released ~lock:1 ~cpu:0;
        mutex_acquired ~lock:1 ~cpu:2;
        mutex_released ~lock:1 ~cpu:2;
      ]
  in
  Live.check_quiescent live;
  check bool "clean" true (Live.ok live);
  check int "events" 4 (Live.events_seen live)

let test_live_mutex_double_acquire () =
  let live =
    feed
      [
        mutex_acquired ~lock:1 ~cpu:0;
        mutex_acquired ~lock:1 ~cpu:1;
      ]
  in
  check bool "violation recorded" false (Live.ok live)

let test_live_txn_overlap () =
  let live =
    feed
      [
        txn_locked ~asp:1 ~cpu:0 ~lo:0x1000 ~hi:0x5000;
        txn_locked ~asp:1 ~cpu:1 ~lo:0x4000 ~hi:0x8000;
      ]
  in
  check bool "P1 violation recorded" false (Live.ok live)

let test_live_txn_disjoint () =
  let live =
    feed
      [
        txn_locked ~asp:1 ~cpu:0 ~lo:0x1000 ~hi:0x4000;
        txn_locked ~asp:1 ~cpu:1 ~lo:0x4000 ~hi:0x8000;
        txn_committed ~asp:1 ~cpu:0 ~lo:0x1000 ~hi:0x4000;
        (* same range again, now free *)
        txn_locked ~asp:1 ~cpu:2 ~lo:0x1000 ~hi:0x4000;
        txn_committed ~asp:1 ~cpu:2 ~lo:0x1000 ~hi:0x4000;
        txn_committed ~asp:1 ~cpu:1 ~lo:0x4000 ~hi:0x8000;
      ]
  in
  Live.check_quiescent live;
  check bool "disjoint and sequential txns are clean" true (Live.ok live)

let test_live_rcu_grace_period () =
  let bad =
    feed
      [
        ev ~cpu:1 Event.Rcu_enter;
        ev
          (Event.Rcu_retire
             { cb = 7; waiting = [| false; true; false; false |] });
        ev (Event.Rcu_fire { cb = 7 });
      ]
  in
  check bool "fire before reader exits is a violation" false (Live.ok bad);
  let good =
    feed
      [
        ev ~cpu:1 Event.Rcu_enter;
        ev
          (Event.Rcu_retire
             { cb = 7; waiting = [| false; true; false; false |] });
        ev ~cpu:1 Event.Rcu_exit;
        ev (Event.Rcu_fire { cb = 7 });
      ]
  in
  check bool "fire after reader exits is clean" true (Live.ok good)

let test_live_quiescent () =
  let live = feed [ mutex_acquired ~lock:9 ~cpu:3 ] in
  check bool "no violation yet" true (Live.ok live);
  Live.check_quiescent live;
  check bool "held lock flagged at quiescence" false (Live.ok live)

(* -- Deferred frame frees (batched TLB shootdown) -- *)

let test_live_frame_reuse () =
  (* Reallocation overlapping a deferred-but-unflushed frame is the
     stale-translation use-after-free the batched policy must prevent. *)
  let bad =
    feed
      [
        ev (Event.Frame_deferred { pfn = 100; pages = 2 });
        ev (Event.Frame_allocated { pfn = 101; pages = 1 });
      ]
  in
  check bool "reuse before flush is a violation" false (Live.ok bad);
  let good =
    feed
      [
        ev (Event.Frame_deferred { pfn = 100; pages = 2 });
        ev (Event.Frame_freed { pfn = 100; pages = 2 });
        ev (Event.Frame_allocated { pfn = 100; pages = 2 });
      ]
  in
  Live.check_quiescent good;
  check bool "reuse after flush is clean" true (Live.ok good);
  let unrelated =
    feed
      [
        ev (Event.Frame_deferred { pfn = 100; pages = 2 });
        ev (Event.Frame_allocated { pfn = 102; pages = 4 });
      ]
  in
  check bool "disjoint allocation is fine" true (Live.ok unrelated)

let test_live_frame_quiescence () =
  let live = feed [ ev (Event.Frame_deferred { pfn = 7; pages = 1 }) ] in
  check bool "no violation while running" true (Live.ok live);
  Live.check_quiescent live;
  check bool "never-flushed deferral flagged at end" false (Live.ok live)

(* The real thing: a multi-CPU CortenMM world under the batched policy.
   Every CPU touches a shared region (so its unmap has remote shootdown
   targets), one CPU unmaps (frames defer behind the batch), and a later
   timer tick ages the batch out. The live checker must see deferrals
   resolve with no reuse-before-flush. *)
let test_live_batched_unmap_clean () =
  let ncpus = 4 in
  let live = Live.create ~ncpus in
  let deferred = ref 0 and freed = ref 0 in
  Trace.set_checker (fun e ->
      (match e.payload with
      | Event.Frame_deferred _ -> incr deferred
      | Event.Frame_freed _ -> incr freed
      | _ -> ());
      Live.observe live e);
  Fun.protect ~finally:Trace.clear_checker @@ fun () ->
  let module Engine = Mm_sim.Engine in
  let kernel = Cortenmm.Kernel.create ~ncpus () in
  let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
  Mm_tlb.Tlb.set_policy
    (Cortenmm.Addr_space.tlb asp)
    (Mm_tlb.Tlb.Batched { window = 10_000; max_batch = 64 });
  let addr = 0x4000_0000 and pages = 4 in
  let len = pages * 4096 in
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      ignore (Mm_compat.mmap asp ~addr ~len ~perm:Mm_hal.Perm.rw ()));
  Engine.run w;
  let w = Engine.create ~ncpus in
  for c = 0 to ncpus - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        for p = 0 to pages - 1 do
          Cortenmm.Mm.touch asp ~vaddr:(addr + (p * 4096)) ~write:false
        done)
  done;
  Engine.run w;
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      Mm_compat.munmap asp ~addr ~len;
      check bool "frees were deferred" true (!deferred > 0);
      check int "not freed while the batch is pending" 0 !freed;
      (* Age the batch past its window; the tick flushes it. *)
      Engine.tick 20_000;
      Cortenmm.Mm.timer_tick asp);
  Engine.run w;
  check int "every deferred frame was freed by the flush" !deferred !freed;
  Live.check_quiescent live;
  (match Live.violations live with
  | [] -> ()
  | v :: _ -> Alcotest.failf "live checker violation: %s" v);
  check bool "clean" true (Live.ok live)

(* -- Backing-object lifecycle invariants -- *)

(* A well-formed fork/exit episode: base, two shadows, sibling exits
   (unref + destroy), base collapses into the survivor. *)
let test_live_obj_lifecycle_clean () =
  let live =
    feed
      [
        ev (Event.Obj_created { obj = 1; parent = -1 });
        ev (Event.Obj_created { obj = 2; parent = 1 });
        ev (Event.Obj_ref { obj = 1; refs = 2 });
        ev (Event.Obj_created { obj = 3; parent = 1 });
        ev (Event.Obj_ref { obj = 1; refs = 3 });
        (* space 1 hands its own reference to the shadows *)
        ev (Event.Obj_unref { obj = 1; refs = 2 });
        (* sibling 3 exits: base drops to one referent and collapses *)
        ev (Event.Obj_unref { obj = 3; refs = 0 });
        ev (Event.Obj_destroyed { obj = 3 });
        ev (Event.Obj_unref { obj = 1; refs = 1 });
        ev (Event.Obj_collapsed { obj = 1; into = 2 });
        ev (Event.Obj_destroyed { obj = 1 });
      ]
  in
  Live.check_quiescent live;
  (match Live.violations live with
  | [] -> ()
  | v :: _ -> Alcotest.failf "live checker violation: %s" v);
  check bool "clean" true (Live.ok live)

let test_live_obj_refcount_lie () =
  let live =
    feed
      [
        ev (Event.Obj_created { obj = 1; parent = -1 });
        ev (Event.Obj_ref { obj = 1; refs = 5 });
      ]
  in
  check bool "reported refcount != tracked is a violation" false
    (Live.ok live)

let test_live_obj_bad_collapse () =
  let live =
    feed
      [
        ev (Event.Obj_created { obj = 1; parent = -1 });
        ev (Event.Obj_created { obj = 2; parent = 1 });
        ev (Event.Obj_ref { obj = 1; refs = 2 });
        ev (Event.Obj_created { obj = 3; parent = 1 });
        ev (Event.Obj_ref { obj = 1; refs = 3 });
        (* collapsing a base both shadows still reference *)
        ev (Event.Obj_collapsed { obj = 1; into = 2 });
      ]
  in
  check bool "multi-referent collapse is a violation" false (Live.ok live)

let test_live_obj_use_after_death () =
  let live =
    feed
      [
        ev (Event.Obj_created { obj = 1; parent = -1 });
        ev (Event.Obj_unref { obj = 1; refs = 0 });
        ev (Event.Obj_destroyed { obj = 1 });
        ev (Event.Obj_ref { obj = 1; refs = 1 });
      ]
  in
  check bool "referencing a destroyed object is a violation" false
    (Live.ok live)

let test_live_obj_leak_at_quiescence () =
  let live =
    feed
      [
        ev (Event.Obj_created { obj = 1; parent = -1 });
        ev (Event.Obj_unref { obj = 1; refs = 0 });
        (* dropped to zero refs but its Obj_destroyed never came *)
      ]
  in
  check bool "no violation while running" true (Live.ok live);
  Live.check_quiescent live;
  check bool "zero-ref undestroyed object flagged at quiescence" false
    (Live.ok live)

(* The real thing: a monitored CortenMM world runs a two-level fork
   tree with COW breaks on both sides; the event stream must replay
   cleanly through every object invariant, and teardown must end with
   the root space back on a depth-one chain. *)
let test_live_obj_fork_world_clean () =
  let ncpus = 2 in
  let live = Live.create ~ncpus in
  let obj_events = ref 0 in
  Trace.set_checker (fun e ->
      (match e.payload with
      | Event.Obj_created _ | Event.Obj_ref _ | Event.Obj_unref _
      | Event.Obj_collapsed _ | Event.Obj_destroyed _ ->
        incr obj_events
      | _ -> ());
      Live.observe live e);
  Fun.protect ~finally:Trace.clear_checker @@ fun () ->
  let module Engine = Mm_sim.Engine in
  let kernel = Cortenmm.Kernel.create ~ncpus () in
  let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
  let w = Engine.create ~ncpus in
  Engine.spawn w ~cpu:0 (fun () ->
      let addr =
        Mm_compat.mmap asp ~len:(4 * 4096) ~perm:Mm_hal.Perm.rw ()
      in
      Cortenmm.Mm.write_value asp ~vaddr:addr ~value:1;
      let child = Cortenmm.Mm.fork asp in
      let grandchild = Cortenmm.Mm.fork child in
      Cortenmm.Mm.write_value child ~vaddr:addr ~value:2;
      Cortenmm.Mm.write_value grandchild ~vaddr:addr ~value:3;
      Cortenmm.Mm.write_value asp ~vaddr:addr ~value:4;
      Cortenmm.Mm.destroy grandchild;
      Cortenmm.Mm.destroy child;
      Cortenmm.Mm.destroy asp);
  Engine.run w;
  check bool "object events flowed" true (!obj_events > 0);
  Live.check_quiescent live;
  (match Live.violations live with
  | [] -> ()
  | v :: _ -> Alcotest.failf "live checker violation: %s" v);
  check bool "clean" true (Live.ok live)

(* -- Schedule files -- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_schedule_roundtrip () =
  let s =
    {
      Schedule.protocol = "adv";
      cpus = 4;
      ops = 12;
      workload_seed = 42;
      mutant = "rw-skip-handoff";
      keys = [| 0; 3; 1; 0; 7 |];
    }
  in
  let path = tmp "schedcheck_roundtrip.sched" in
  Schedule.save s path;
  (match Schedule.load path with
  | Ok s' -> check bool "roundtrip equal" true (s = s')
  | Error msg -> Alcotest.fail msg);
  let empty = { s with keys = [||]; mutant = "none" } in
  Schedule.save empty path;
  match Schedule.load path with
  | Ok s' -> check bool "empty keys roundtrip" true (empty = s')
  | Error msg -> Alcotest.fail msg

let test_schedule_load_errors () =
  (match Schedule.load (tmp "schedcheck_no_such_file.sched") with
  | Ok _ -> Alcotest.fail "expected error for missing file"
  | Error _ -> ());
  let path = tmp "schedcheck_bad_header.sched" in
  let oc = open_out path in
  output_string oc "not a schedule\n";
  close_out oc;
  match Schedule.load path with
  | Ok _ -> Alcotest.fail "expected error for bad header"
  | Error _ -> ()

(* -- Exploration -- *)

let cfg protocol mutant =
  { protocol; cpus = 4; ops_per_cpu = 10; workload_seed = 42; mutant }

let test_explore_clean () =
  List.iter
    (fun protocol ->
      match explore ~seeds:3 (cfg protocol M_none) with
      | Clean { seeds } -> check int "all seeds clean" 3 seeds
      | Violation { violations; _ } ->
          Alcotest.fail
            ("unexpected violation: " ^ String.concat "; " violations))
    [ Cortenmm.Config.adv; Cortenmm.Config.rw ]

let test_mutant_caught protocol mutant () =
  let c = { (cfg protocol mutant) with ops_per_cpu = 12 } in
  match explore ~seeds:10 c with
  | Clean _ -> Alcotest.fail "mutant not caught within 10 seeds"
  | Violation { keys; violations; _ } ->
      check bool "violations reported" false (violations = []);
      (* The minimized schedule must reproduce through a file roundtrip. *)
      let path = tmp ("schedcheck_" ^ mutant_name mutant ^ ".sched") in
      Schedule.save (schedule_of c keys) path;
      let s =
        match Schedule.load path with
        | Ok s -> s
        | Error msg -> Alcotest.fail msg
      in
      (match replay_schedule s with
      | Ok [] -> Alcotest.fail "replayed schedule came back clean"
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)

let test_replay_schedule_errors () =
  let s =
    {
      Schedule.protocol = "linux";
      cpus = 2;
      ops = 4;
      workload_seed = 1;
      mutant = "none";
      keys = [||];
    }
  in
  (match replay_schedule s with
  | Ok _ -> Alcotest.fail "expected unknown-protocol error"
  | Error _ -> ());
  match replay_schedule { s with protocol = "adv"; mutant = "chaos" } with
  | Ok _ -> Alcotest.fail "expected unknown-mutant error"
  | Error _ -> ()

let () =
  Alcotest.run "mm_schedcheck"
    [
      ( "live",
        [
          Alcotest.test_case "mutex clean" `Quick test_live_mutex_clean;
          Alcotest.test_case "mutex double acquire" `Quick
            test_live_mutex_double_acquire;
          Alcotest.test_case "txn overlap" `Quick test_live_txn_overlap;
          Alcotest.test_case "txn disjoint" `Quick test_live_txn_disjoint;
          Alcotest.test_case "rcu grace period" `Quick
            test_live_rcu_grace_period;
          Alcotest.test_case "quiescence" `Quick test_live_quiescent;
          Alcotest.test_case "frame reuse before flush" `Quick
            test_live_frame_reuse;
          Alcotest.test_case "frame deferral quiescence" `Quick
            test_live_frame_quiescence;
          Alcotest.test_case "obj lifecycle clean" `Quick
            test_live_obj_lifecycle_clean;
          Alcotest.test_case "obj refcount lie" `Quick
            test_live_obj_refcount_lie;
          Alcotest.test_case "obj bad collapse" `Quick
            test_live_obj_bad_collapse;
          Alcotest.test_case "obj use after death" `Quick
            test_live_obj_use_after_death;
          Alcotest.test_case "obj leak at quiescence" `Quick
            test_live_obj_leak_at_quiescence;
          Alcotest.test_case "obj fork world clean (corten, 2 cpus)" `Quick
            test_live_obj_fork_world_clean;
          Alcotest.test_case "batched unmap clean (corten, 4 cpus)" `Quick
            test_live_batched_unmap_clean;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "load errors" `Quick test_schedule_load_errors;
        ] );
      ( "explore",
        [
          Alcotest.test_case "clean on both protocols" `Quick
            test_explore_clean;
          Alcotest.test_case "rw mutant caught (rw)" `Quick
            (test_mutant_caught Cortenmm.Config.rw M_rw_skip_handoff);
          Alcotest.test_case "rcu mutant caught (adv)" `Quick
            (test_mutant_caught Cortenmm.Config.adv M_rcu_no_gp);
          Alcotest.test_case "replay errors" `Quick
            test_replay_schedule_errors;
        ] );
    ]
