(* Tests for lib/obs: ring-buffer mechanics, the determinism guarantee
   (identical runs produce byte-identical event streams; tracing never
   perturbs virtual time), Chrome trace_event export, the metrics
   registry, the contention profile, and agreement between the traced
   Stale_retry events and [Addr_space.stale_retries]. *)

module Engine = Mm_sim.Engine
module Ring = Mm_obs.Ring
module Event = Mm_obs.Event
module Trace = Mm_obs.Trace
module Metrics = Mm_obs.Metrics
module Contention = Mm_obs.Contention
module Json = Mm_obs.Json
module Chrome = Mm_obs.Chrome
module Errno = Mm_hal.Errno
module Micro = Mm_workloads.Micro
module Runner = Mm_workloads.Runner
module System = Mm_workloads.System

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- Ring buffer -- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check Alcotest.int "empty" 0 (Ring.length r);
  List.iter (fun i -> Ring.push r i) [ 0; 1; 2 ];
  check Alcotest.int "partial" 3 (Ring.length r);
  check Alcotest.int "no drops" 0 (Ring.dropped r);
  check Alcotest.(list int) "order" [ 0; 1; 2 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  check Alcotest.int "full" 4 (Ring.length r);
  check Alcotest.int "dropped" 6 (Ring.dropped r);
  (* Oldest-first survivors are the last [capacity] pushes. *)
  check Alcotest.(list int) "survivors" [ 6; 7; 8; 9 ] (Ring.to_list r);
  Ring.clear r;
  check Alcotest.int "cleared" 0 (Ring.length r)

(* -- Trace sessions -- *)

let test_trace_off_is_noop () =
  check Alcotest.bool "off" false (Trace.on ());
  (* Emitting without a session must be a silent no-op. *)
  Trace.emit ~time:0 ~cpu:0 Event.Rcu_enter;
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.events ()))

(* [Trace.on] first reads a process-wide count of domains with a
   subscriber. The count must stay balanced under repeated start/stop and
   set/clear of the checker, a domain with both subscribers counts once,
   and a subscriber on one domain must stay invisible on another. *)
let test_guard_fast_path () =
  let on_other_domain f = Domain.join (Domain.spawn f) in
  check Alcotest.int "no sessions" 0 (Trace.domains ());
  check Alcotest.int "no hooks" 0 (Trace.domains ());
  Trace.start ();
  Trace.start ();
  check Alcotest.int "restart keeps one session" 1 (Trace.domains ());
  check Alcotest.bool "on here" true (Trace.on ());
  check Alcotest.bool "off elsewhere" false (on_other_domain Trace.on);
  check Alcotest.int "other domain's session counted" 2
    (on_other_domain (fun () ->
         Trace.start ();
         let n = Trace.domains () in
         ignore (Trace.stop ());
         n));
  ignore (Trace.stop ());
  ignore (Trace.stop ());
  check Alcotest.int "sessions balanced" 0 (Trace.domains ());
  check Alcotest.bool "off after stop" false (Trace.on ());
  Trace.set_checker ignore;
  Trace.set_checker ignore;
  check Alcotest.int "re-set keeps one hook" 1 (Trace.domains ());
  check Alcotest.bool "hook here" true (Trace.on ());
  check Alcotest.bool "no hook elsewhere" false (on_other_domain Trace.on);
  Trace.start ();
  check Alcotest.int "session and hook count one domain" 1 (Trace.domains ());
  ignore (Trace.stop ());
  check Alcotest.bool "hook outlives the session" true (Trace.on ());
  Trace.clear_checker ();
  Trace.clear_checker ();
  check Alcotest.int "hooks balanced" 0 (Trace.domains ());
  check Alcotest.bool "no hook after clear" false (Trace.on ())

let run_micro () =
  Micro.run
    ~kind:(System.Corten Cortenmm.Config.adv)
    ~ncpus:4 ~bench:Micro.Pf ~contention:Micro.High ~iters:20 ()

let traced_micro () =
  Trace.start ~capacity:(1 lsl 18) ();
  let r = run_micro () in
  let events = Trace.stop () in
  (r, events)

let test_trace_determinism () =
  let r1, e1 = traced_micro () in
  let r2, e2 = traced_micro () in
  check Alcotest.bool "events recorded" true (List.length e1 > 0);
  check Alcotest.bool "byte-identical streams" true
    (Trace.to_text e1 = Trace.to_text e2);
  match (r1, r2) with
  | Some r1, Some r2 ->
    check Alcotest.int "identical cycles" r1.Runner.cycles r2.Runner.cycles
  | _ -> Alcotest.fail "micro benchmark did not run"

let test_tracing_does_not_perturb () =
  (* The same workload, traced and untraced, must report bit-identical
     virtual-time results: recording never advances simulated time. *)
  let plain =
    match run_micro () with
    | Some r -> r.Runner.cycles
    | None -> Alcotest.fail "micro benchmark did not run"
  in
  let traced =
    match traced_micro () with
    | Some r, _ -> r.Runner.cycles
    | None, _ -> Alcotest.fail "micro benchmark did not run"
  in
  check Alcotest.int "cycles identical with tracing on" plain traced

(* -- Lock-id numbering --

   Unnamed PT-page locks appear in traces and contention reports as
   [mutex#<id>] / [rwlock#<id>], so the order in which frame descriptors
   reserve lock ids is part of the observable output. The digest pins the
   Chrome JSON of one small traced world per PT-locking system; it was
   taken while descriptors built both locks eagerly, and while the trace
   held only the eighteen kinds below, so it covers those. *)

let lock_id_trace_golden = "2dc2d875f07ed917d9217f67b768ec0e"

let golden_kinds =
  [ "lock-acquire"; "lock-release"; "lock-contend"; "rcu-enter"; "rcu-exit";
    "rcu-defer"; "rcu-gp"; "tlb-shootdown"; "tlb-latr-drain"; "pt-split";
    "pt-free"; "cursor-lock"; "cursor-commit"; "stale-retry"; "page-fault";
    "span-begin"; "span-end"; "counter" ]

let test_lock_id_trace_golden () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (kind, needle) ->
      Runner.reset_world_state ();
      Trace.start ~capacity:(1 lsl 18) ();
      ignore
        (Micro.run ~kind ~ncpus:2 ~bench:Micro.Pf ~contention:Micro.High
           ~iters:4 ());
      let events =
        List.filter
          (fun (e : Event.t) -> List.mem (Event.name e.payload) golden_kinds)
          (Trace.stop ())
      in
      let text = Json.to_string (Chrome.to_json events) in
      check Alcotest.bool
        (System.kind_name kind ^ " trace names PT-page locks by id")
        true (contains ~needle text);
      Buffer.add_string buf text)
    [
      (System.Linux, "mutex#");
      (System.Corten Cortenmm.Config.rw, "rwlock#");
      (System.Corten Cortenmm.Config.adv, "mutex#");
    ];
  check Alcotest.string "chrome trace digest" lock_id_trace_golden
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* -- Chrome export -- *)

let test_chrome_json_wellformed () =
  let _, events = traced_micro () in
  let text = Json.to_string (Chrome.to_json events) in
  match Json.parse text with
  | Error msg -> Alcotest.fail ("chrome JSON does not parse: " ^ msg)
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
    | None -> Alcotest.fail "no traceEvents array"
    | Some items ->
      check Alcotest.bool "has events" true (List.length items > 0);
      List.iter
        (fun item ->
          List.iter
            (fun field ->
              if Json.member field item = None then
                Alcotest.fail ("event missing field " ^ field))
            [ "name"; "ph"; "pid"; "tid" ];
          (* Complete events reconstruct [time - span, time]: ts must not
             go negative. *)
          match (Json.member "ph" item, Json.member "ts" item) with
          | Some (Json.String "X"), Some (Json.Int ts) ->
            check Alcotest.bool "span ts >= 0" true (ts >= 0)
          | _ -> ())
        items)

(* -- JSON corner cases -- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("l", Json.List [ Json.Int 1; Json.Null; Json.Bool true ]);
        ("f", Json.Float 1.5);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "roundtrip" true (v = v')
  | Error msg -> Alcotest.fail msg

let test_json_rejects_garbage () =
  (match Json.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "accepted malformed object"
  | Error _ -> ());
  match Json.parse "[1,2] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

(* -- Metrics -- *)

let test_metrics () =
  Metrics.reset ();
  let c = Metrics.counter "test.count" in
  Metrics.inc c;
  Metrics.add c 4;
  check Alcotest.int "counter" 5 (Metrics.count c);
  check Alcotest.bool "find-or-create" true (c == Metrics.counter "test.count");
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1; 2; 4; 8 ];
  check Alcotest.int "samples" 4 (Metrics.samples h);
  check Alcotest.int "total" 15 (Metrics.total h);
  check Alcotest.int "max" 8 (Metrics.max_value h);
  check (Alcotest.float 0.001) "mean" 3.75 (Metrics.mean h);
  check Alcotest.bool "median bucket" true (Metrics.quantile h 0.5 <= 4);
  let dump = Metrics.dump () in
  check Alcotest.bool "dump lists counter" true
    (contains ~needle:"test.count" dump);
  check Alcotest.bool "dump lists histogram" true
    (contains ~needle:"test.hist" dump);
  Metrics.reset ();
  check Alcotest.int "reset" 0 (Metrics.count (Metrics.counter "test.count"))

(* -- Contention profile -- *)

let test_contention_ranking () =
  Trace.start ();
  let hot = Mm_sim.Mutex_s.make ~name:"test.hot" () in
  let cold = Mm_sim.Mutex_s.make ~name:"test.cold" () in
  let w = Engine.create ~ncpus:4 in
  for cpu = 0 to 3 do
    Engine.spawn w ~cpu (fun () ->
        for _ = 1 to 10 do
          Mm_sim.Mutex_s.lock hot;
          Engine.tick 500;
          Mm_sim.Mutex_s.unlock hot
        done;
        if cpu = 0 then begin
          Mm_sim.Mutex_s.lock cold;
          Mm_sim.Mutex_s.unlock cold
        end)
  done;
  Engine.run w;
  (match Contention.top () with
  | None -> Alcotest.fail "no contention recorded"
  | Some e ->
    check Alcotest.string "top lock is the hot one" "test.hot"
      e.Contention.name;
    check Alcotest.bool "serialized cycles recorded" true
      (e.Contention.wait_cycles > 0);
    check Alcotest.int "all acquisitions counted" 40
      e.Contention.acquisitions);
  let report = Contention.report () in
  check Alcotest.bool "report names the hot lock" true
    (contains ~needle:"test.hot" report);
  ignore (Trace.stop ())

(* -- Engine stats satellites -- *)

let test_engine_stats_consistency () =
  let m = Mm_sim.Mutex_s.make () in
  let w = Engine.create ~ncpus:4 in
  for cpu = 0 to 3 do
    Engine.spawn w ~cpu (fun () ->
        for _ = 1 to 5 do
          Mm_sim.Mutex_s.lock m;
          Engine.tick 100;
          Mm_sim.Mutex_s.unlock m
        done)
  done;
  Engine.run w;
  let s = Engine.stats w in
  check Alcotest.bool "parks >= wakes" true (s.Engine.parks >= s.Engine.wakes);
  check Alcotest.bool "wakes happened" true (s.Engine.wakes > 0);
  check Alcotest.bool "ready-queue high-water >= 1" true
    (s.Engine.max_ready_queue >= 1);
  check Alcotest.bool "high-water bounded by fibers" true
    (s.Engine.max_ready_queue <= 4)

(* -- Stale-retry agreement (adv protocol, Fig 6 L10-13) -- *)

let test_stale_retries_agree () =
  Trace.start ~capacity:(1 lsl 20) ();
  let asp_box = ref None in
  let ps = 4096 in
  let base = 0x4000_0000 in
  (* The window must span multiple L1 PT pages (> 2 MiB): [free_child]
     only fires on strict descendants of the unmapper's covering node, so
     a single-PT-page window never marks anything stale. *)
  let pages = 1024 in
  let len = pages * ps in
  let ncpus = 4 in
  ignore
    (Runner.run_phases ~ncpus
       ~setup:(fun () ->
         let kernel = Cortenmm.Kernel.create ~ncpus () in
         let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
         ignore (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ());
         asp_box := Some asp)
       ~measure:(fun cpu ->
         let asp = Option.get !asp_box in
         if cpu = 0 then
           (* Churn the window: each munmap empties the covering PT
              page(s), marking them stale under concurrent touchers. *)
           for _ = 1 to 20 do
             Mm_compat.munmap asp ~addr:base ~len;
             ignore
               (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ())
           done
         else
           for i = 1 to 120 do
             let v = base + ((cpu * 37) + i) mod pages * ps in
             try Cortenmm.Mm.touch asp ~vaddr:v ~write:true
             with Cortenmm.Mm.Fault _ -> ()
           done)
       ());
  let asp = Option.get !asp_box in
  let dropped = Trace.dropped () in
  let events = Trace.stop () in
  check Alcotest.int "no ring overflow" 0 dropped;
  let traced =
    List.length
      (List.filter (fun e -> e.Event.payload = Event.Stale_retry) events)
  in
  check Alcotest.bool "the retry path was exercised" true (traced > 0);
  check Alcotest.int "trace agrees with Addr_space.stale_retries"
    (Cortenmm.Addr_space.stale_retries asp)
    traced

(* -- Object, frame and reclaim events reach the trace --

   A 2-vCPU CortenMM world under the batched TLB policy: vCPU 1 forks and
   destroys the child (its shadow collapses), vCPU 0 unmaps the forked
   region (frees defer behind the batch, which a timer tick flushes), and
   vCPU 1 pages a fresh region out under pressure. A checker subscribed
   beside the ring records the running vCPU and clock as each event is
   delivered; the ring must hold exactly the events delivered inside a
   fiber, stamped with that vCPU and time. *)
let test_checker_kinds_traced () =
  let ps = 4096 and pages = 8 in
  let len = pages * ps in
  let sys = System.make (System.Corten Cortenmm.Config.adv) ~ncpus:2 in
  System.set_shootdown_policy sys
    (Mm_tlb.Tlb.Batched { window = 10_000; max_batch = 64 });
  Trace.start ~capacity:(1 lsl 18) ();
  let delivered = ref [] in
  Trace.set_checker (fun e ->
      if Engine.in_fiber () then
        delivered := (e, Engine.cpu_id (), Engine.now ()) :: !delivered);
  let w = Engine.create ~ncpus:2 in
  let b = Runner.Barrier.make ~total:2 in
  let forked = ref 0 in
  Engine.spawn w ~cpu:0 (fun () ->
      forked := Errno.ok_exn (System.mmap sys ~len ~perm:Mm_hal.Perm.rw ());
      for p = 0 to pages - 1 do
        Errno.ok_exn
          (System.write_value sys ~vaddr:(!forked + (p * ps)) ~value:p)
      done;
      Runner.Barrier.wait b;
      Runner.Barrier.wait b;
      Errno.ok_exn (System.munmap sys ~addr:!forked ~len);
      Engine.tick 20_000;
      System.timer_tick sys;
      Runner.Barrier.wait b);
  Engine.spawn w ~cpu:1 (fun () ->
      Runner.Barrier.wait b;
      Errno.ok_exn (System.touch_range sys ~addr:!forked ~len ~write:false);
      System.destroy (Errno.ok_exn (System.fork sys));
      Runner.Barrier.wait b;
      Runner.Barrier.wait b;
      let fresh =
        Errno.ok_exn (System.mmap sys ~len ~perm:Mm_hal.Perm.rw ())
      in
      Errno.ok_exn (System.touch_range sys ~addr:fresh ~len ~write:true);
      ignore (System.pressure sys ~target_pages:pages));
  Engine.run w;
  Trace.clear_checker ();
  let dropped = Trace.dropped () in
  let events = Trace.stop () in
  check Alcotest.int "no ring overflow" 0 dropped;
  let delivered = List.rev !delivered in
  List.iter
    (fun ((e : Event.t), cpu, now) ->
      check Alcotest.int (Event.name e.payload ^ " vCPU") cpu e.cpu;
      check Alcotest.int (Event.name e.payload ^ " time") now e.time)
    delivered;
  check Alcotest.bool "the ring holds every in-fiber event" true
    (List.map (fun (e, _, _) -> e) delivered = events);
  List.iter
    (fun (name, cpu) ->
      check Alcotest.bool
        (Printf.sprintf "%s traced on vCPU %d" name cpu)
        true
        (List.exists
           (fun (e : Event.t) -> Event.name e.payload = name && e.cpu = cpu)
           events))
    [
      ("obj-created", 1); ("obj-collapsed", 1); ("frame-deferred", 0);
      ("frame-freed", 0); ("reclaim-page", 1);
    ]

(* -- Quantile error bounds --

   [Metrics.quantile] documents: for an exact rank-ceil(q*n) value
   x >= 1, the reported r satisfies x <= r <= max 1 (2x - 1) (and an
   exact 0 reports at most 1). Check it against exact sorted-sample
   percentiles over adversarial and random distributions. *)

let exact_quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(rank - 1)

let check_quantile_bounds ~name values =
  let h = Metrics.unregistered name in
  List.iter (Metrics.observe h) values;
  List.iter
    (fun q ->
      let exact = exact_quantile values q in
      let approx = Metrics.quantile h q in
      let ub = if exact <= 0 then 1 else max 1 ((2 * exact) - 1) in
      check Alcotest.bool
        (Printf.sprintf "%s q=%.3f: %d <= %d (never under)" name q exact
           approx)
        true (approx >= exact);
      check Alcotest.bool
        (Printf.sprintf "%s q=%.3f: %d <= %d (within 2x)" name q approx ub)
        true (approx <= ub))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_quantile_bounds () =
  check_quantile_bounds ~name:"uniform" (List.init 1000 (fun i -> i + 1));
  check_quantile_bounds ~name:"constant" (List.init 100 (fun _ -> 42));
  check_quantile_bounds ~name:"powers"
    (List.init 500 (fun i -> 1 lsl (i mod 20)));
  check_quantile_bounds ~name:"bucket-edges"
    (List.concat_map (fun b -> [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ])
       (List.init 15 (fun b -> b + 1)));
  check_quantile_bounds ~name:"with-zeros"
    (0 :: 0 :: 0 :: List.init 50 (fun i -> i));
  let rng = Mm_util.Rng.create ~seed:7 in
  check_quantile_bounds ~name:"random-heavy-tail"
    (List.init 2000 (fun _ ->
         let base = Mm_util.Rng.int rng 1000 in
         if Mm_util.Rng.int rng 100 < 2 then base * 1000 else base))

(* [Metrics.bucket_of] against the bit-by-bit loop it replaced, on 0,
   negatives, every power of two and its neighbours, [max_int] and
   random values. *)
let bucket_of_prop =
  let loop v =
    if v <= 0 then 0
    else
      let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
      min 62 (go (-1) v)
  in
  let edges =
    List.concat_map
      (fun b -> [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ])
      (List.init 62 Fun.id)
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          oneofl ([ 0; -1; min_int; max_int; max_int - 1 ] @ edges);
          int_range min_int (-1);
          int_range 0 max_int;
          map (fun b -> 1 lsl b) (int_bound 61);
        ])
  in
  QCheck.Test.make ~name:"bucket_of matches the bit loop" ~count:2000
    (QCheck.make ~print:string_of_int gen) (fun v ->
      Metrics.bucket_of v = loop v)

let test_quantile_registry_independence () =
  (* unregistered histograms with one name do not share state, and never
     appear in the global enumeration. *)
  let a = Metrics.unregistered "indep" and b = Metrics.unregistered "indep" in
  Metrics.observe a 100;
  check Alcotest.int "a has the sample" 1 (Metrics.samples a);
  check Alcotest.int "b does not" 0 (Metrics.samples b);
  check Alcotest.bool "not in the registry" true
    (not (List.exists (fun (n, _) -> n = "indep") (Metrics.histograms ())))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off is no-op" `Quick test_trace_off_is_noop;
          Alcotest.test_case "guard fast path" `Quick test_guard_fast_path;
          Alcotest.test_case "determinism" `Quick test_trace_determinism;
          Alcotest.test_case "zero perturbation" `Quick
            test_tracing_does_not_perturb;
          Alcotest.test_case "lock-id golden digest" `Quick
            test_lock_id_trace_golden;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome wellformed" `Quick
            test_chrome_json_wellformed;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_json_rejects_garbage;
        ] );
      ( "registries",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "quantile error bounds" `Quick
            test_quantile_bounds;
          QCheck_alcotest.to_alcotest bucket_of_prop;
          Alcotest.test_case "unregistered histograms independent" `Quick
            test_quantile_registry_independence;
          Alcotest.test_case "contention ranking" `Quick
            test_contention_ranking;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine stats consistent" `Quick
            test_engine_stats_consistency;
          Alcotest.test_case "stale retries agree" `Quick
            test_stale_retries_agree;
          Alcotest.test_case "checker kinds traced" `Quick
            test_checker_kinds_traced;
        ] );
    ]
