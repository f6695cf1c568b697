(* Tests for the deterministic multicore simulator: virtual time accounting,
   cache-line serialization, lock mutual exclusion and fairness, RCU grace
   periods, and determinism across runs. *)

open Mm_sim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Engine basics -- *)

let test_tick_accumulates () =
  let w = Engine.create ~ncpus:2 in
  Engine.spawn w ~cpu:0 (fun () ->
      Engine.tick 10;
      Engine.tick 5;
      check int "now" 15 (Engine.now ()));
  Engine.spawn w ~cpu:1 (fun () -> Engine.tick 100);
  Engine.run w;
  check int "cpu0 time" 15 (Engine.cpu_time w 0);
  check int "cpu1 time" 100 (Engine.cpu_time w 1);
  check int "max time" 100 (Engine.max_time w)

let test_cpu_id () =
  let w = Engine.create ~ncpus:3 in
  let seen = Array.make 3 (-1) in
  for c = 0 to 2 do
    Engine.spawn w ~cpu:c (fun () -> seen.(c) <- Engine.cpu_id ())
  done;
  Engine.run w;
  Alcotest.(check (array int)) "cpu ids" [| 0; 1; 2 |] seen

let test_park_unpark () =
  let w = Engine.create ~ncpus:2 in
  let slot = ref None in
  let order = ref [] in
  Engine.spawn w ~cpu:0 (fun () ->
      Engine.park (fun p -> slot := Some p);
      order := "woken" :: !order;
      check int "resumed at" 500 (Engine.now ()));
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 50;
      (match !slot with
      | Some p -> Engine.unpark p ~at:500
      | None -> Alcotest.fail "fiber 0 did not park first");
      order := "waker" :: !order);
  Engine.run w;
  Alcotest.(check (list string)) "order" [ "woken"; "waker" ] !order

(* [Engine.charge] is how shared code charges only under simulation: a
   no-op outside a fiber (whatever the cost), a checked [tick] inside. *)
let test_charge () =
  Engine.charge 100;
  Engine.charge (-1);
  check int "cpu_or_zero outside" 0 (Engine.cpu_or_zero ());
  check bool "no current fiber" true (Engine.current () = None);
  let w = Engine.create ~ncpus:2 in
  let cpu = ref (-1) in
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.charge 40;
      cpu := Engine.cpu_or_zero ();
      Alcotest.check_raises "negative cost"
        (Invalid_argument "Engine.tick: negative cost") (fun () ->
          Engine.charge (-1)));
  Engine.run w;
  check int "charged inside" 40 (Engine.cpu_time w 1);
  check int "cpu_or_zero inside" 1 !cpu

(* A fiber looked up once stays valid across a park: it is the same
   record, and its clock shows the resume time. *)
let test_fiber_across_park () =
  let w = Engine.create ~ncpus:2 in
  let slot = ref None in
  Engine.spawn w ~cpu:0 (fun () ->
      let f = Engine.fiber () in
      Engine.park (fun p -> slot := Some p);
      check bool "same record" true (f == Engine.fiber ());
      check int "resume time" 700 f.Engine.f_time);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 10;
      Option.iter (fun p -> Engine.unpark p ~at:700) !slot);
  Engine.run w

let test_deadlock_detection () =
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () -> Engine.park (fun _ -> ()));
  Alcotest.check_raises "deadlock"
    (Engine.Deadlock "simulation stuck: 1 fiber(s) parked with no wake-up")
    (fun () -> Engine.run w)

let test_serialize_orders_by_time () =
  (* Two fibers interact with shared state at different virtual times; the
     one with the smaller time must apply first even if spawned later. *)
  let w = Engine.create ~ncpus:2 in
  let log = ref [] in
  Engine.spawn w ~cpu:0 (fun () ->
      Engine.tick 100;
      Engine.serialize ();
      log := (`A, Engine.now ()) :: !log);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 10;
      Engine.serialize ();
      log := (`B, Engine.now ()) :: !log);
  Engine.run w;
  match List.rev !log with
  | [ (`B, 10); (`A, 100) ] -> ()
  | _ -> Alcotest.fail "shared ops did not apply in virtual-time order"

(* -- Cache-line model -- *)

let test_line_rmw_serializes () =
  (* N CPUs each perform one RMW on the same line at t=0: completion times
     must be spaced by the transfer cost, i.e. fully serialized. *)
  let n = 8 in
  let w = Engine.create ~ncpus:n in
  let line = Engine.Line.make () in
  let times = Array.make n 0 in
  for c = 0 to n - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        Engine.Line.rmw line;
        times.(c) <- Engine.now ())
  done;
  Engine.run w;
  Array.sort compare times;
  for i = 1 to n - 1 do
    check int
      (Printf.sprintf "gap %d" i)
      Cost.line_transfer
      (times.(i) - times.(i - 1))
  done

let test_line_reads_do_not_serialize () =
  (* Concurrent plain reads must all complete at (roughly) the same time. *)
  let n = 8 in
  let w = Engine.create ~ncpus:n in
  let line = Engine.Line.make () in
  let times = Array.make n 0 in
  for c = 0 to n - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        Engine.Line.read line;
        times.(c) <- Engine.now ())
  done;
  Engine.run w;
  let mx = Array.fold_left max 0 times in
  check bool "all reads fast" true (mx <= Cost.cache_shared)

let test_line_local_rmw_cheap () =
  let w = Engine.create ~ncpus:1 in
  let line = Engine.Line.make () in
  Engine.spawn w ~cpu:0 (fun () ->
      Engine.Line.rmw line;
      let t1 = Engine.now () in
      Engine.Line.rmw line;
      check int "second rmw local" (t1 + Cost.atomic_local) (Engine.now ()));
  Engine.run w

(* -- Mutex -- *)

let test_mutex_mutual_exclusion () =
  let n = 6 and iters = 20 in
  let w = Engine.create ~ncpus:n in
  let m = Mutex_s.make () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let count = ref 0 in
  for c = 0 to n - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        for _ = 1 to iters do
          Mutex_s.lock m;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Engine.tick 50;
          (* The critical section body must be exclusive. *)
          Engine.serialize ();
          incr count;
          decr inside;
          Mutex_s.unlock m
        done)
  done;
  Engine.run w;
  check int "max inside" 1 !max_inside;
  check int "total iterations" (n * iters) !count

let test_mutex_wrong_unlock () =
  let w = Engine.create ~ncpus:2 in
  let m = Mutex_s.make () in
  let failed = ref false in
  Engine.spawn w ~cpu:0 (fun () ->
      Mutex_s.lock m;
      Engine.tick 1000;
      Mutex_s.unlock m);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 10;
      (try Mutex_s.unlock m with Failure _ -> failed := true));
  Engine.run w;
  check bool "non-holder unlock rejected" true !failed

let test_mutex_fifo () =
  let w = Engine.create ~ncpus:4 in
  let m = Mutex_s.make () in
  let order = ref [] in
  Engine.spawn w ~cpu:0 (fun () ->
      Mutex_s.lock m;
      Engine.tick 10_000;
      Mutex_s.unlock m);
  for c = 1 to 3 do
    Engine.spawn w ~cpu:c (fun () ->
        Engine.tick (c * 100);
        (* Arrival order: cpu1, cpu2, cpu3. *)
        Mutex_s.lock m;
        order := c :: !order;
        Mutex_s.unlock m)
  done;
  Engine.run w;
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2; 3 ] (List.rev !order)

let test_try_lock () =
  let w = Engine.create ~ncpus:2 in
  let m = Mutex_s.make () in
  let second = ref None in
  Engine.spawn w ~cpu:0 (fun () ->
      assert (Mutex_s.try_lock m);
      Engine.tick 1_000;
      Mutex_s.unlock m);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 100;
      second := Some (Mutex_s.try_lock m));
  Engine.run w;
  check (Alcotest.option bool) "try_lock contended" (Some false) !second

(* -- Rwlock -- *)

let test_rwlock_readers_concurrent () =
  let n = 6 in
  let w = Engine.create ~ncpus:n in
  let l = Rwlock_s.make () in
  let max_readers = ref 0 in
  for c = 0 to n - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        Rwlock_s.read_lock l;
        if Rwlock_s.readers l > !max_readers then
          max_readers := Rwlock_s.readers l;
        Engine.tick 500;
        Rwlock_s.read_unlock l)
  done;
  Engine.run w;
  check bool "readers overlap" true (!max_readers > 1)

let test_rwlock_writer_excludes () =
  let w = Engine.create ~ncpus:4 in
  let l = Rwlock_s.make () in
  let writer_inside = ref false in
  let violation = ref false in
  Engine.spawn w ~cpu:0 (fun () ->
      Rwlock_s.write_lock l;
      writer_inside := true;
      Engine.tick 2_000;
      Engine.serialize ();
      writer_inside := false;
      Rwlock_s.write_unlock l);
  for c = 1 to 3 do
    Engine.spawn w ~cpu:c (fun () ->
        Engine.tick 100;
        Rwlock_s.read_lock l;
        if !writer_inside then violation := true;
        Engine.tick 50;
        Rwlock_s.read_unlock l)
  done;
  Engine.run w;
  check bool "no reader inside writer section" false !violation

let test_rwlock_phase_fair () =
  (* With a writer pending, later readers must wait behind it: the writer
     must not starve. *)
  let w = Engine.create ~ncpus:3 in
  let l = Rwlock_s.make () in
  let log = ref [] in
  Engine.spawn w ~cpu:0 (fun () ->
      Rwlock_s.read_lock l;
      Engine.tick 1_000;
      Rwlock_s.read_unlock l);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 100;
      Rwlock_s.write_lock l;
      log := `W :: !log;
      Engine.tick 100;
      Rwlock_s.write_unlock l);
  Engine.spawn w ~cpu:2 (fun () ->
      Engine.tick 200;
      (* Arrives after the writer queued: must be admitted after it. *)
      Rwlock_s.read_lock l;
      log := `R :: !log;
      Rwlock_s.read_unlock l);
  Engine.run w;
  match List.rev !log with
  | [ `W; `R ] -> ()
  | _ -> Alcotest.fail "writer was starved by a later reader"

let test_rwlock_downgrade () =
  let w = Engine.create ~ncpus:2 in
  let l = Rwlock_s.make () in
  let observed = ref (-1) in
  Engine.spawn w ~cpu:0 (fun () ->
      Rwlock_s.write_lock l;
      Engine.tick 100;
      Rwlock_s.downgrade l;
      Engine.tick 1_000;
      Rwlock_s.read_unlock l);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 300;
      Rwlock_s.read_lock l;
      observed := Rwlock_s.readers l;
      Rwlock_s.read_unlock l);
  Engine.run w;
  check int "two readers after downgrade" 2 !observed

let test_rwlock_upgrade () =
  (* Upgrade is release-then-acquire (as the Linux fault path uses it):
     the upgrader must wait for other readers to drain. *)
  let w = Engine.create ~ncpus:2 in
  let l = Rwlock_s.make () in
  let upgraded_at = ref (-1) in
  Engine.spawn w ~cpu:0 (fun () ->
      Rwlock_s.read_lock l;
      Engine.tick 100;
      Rwlock_s.upgrade l;
      upgraded_at := Engine.now ();
      check bool "writer after upgrade" true (Rwlock_s.writer_active l);
      Rwlock_s.write_unlock l);
  Engine.spawn w ~cpu:1 (fun () ->
      Rwlock_s.read_lock l;
      Engine.tick 5_000;
      Rwlock_s.read_unlock l);
  Engine.run w;
  check bool "upgrade waited for the other reader" true (!upgraded_at >= 5_000)

let test_bravo_revocation_cost () =
  (* A writer on a BRAVO lock pays a scan proportional to the CPU count. *)
  let ncpus = 16 in
  let w = Engine.create ~ncpus in
  let l = Rwlock_s.make ~bravo:true () in
  Engine.spawn w ~cpu:0 (fun () ->
      Rwlock_s.write_lock l;
      Rwlock_s.write_unlock l);
  Engine.run w;
  check int "one revocation" 1 (Rwlock_s.revocations l);
  check bool "revocation scan cost" true
    (Engine.cpu_time w 0 >= Cost.bravo_revoke_per_cpu * ncpus)

(* -- RCU -- *)

let test_rcu_immediate_free () =
  let w = Engine.create ~ncpus:2 in
  let rcu = Rcu_s.make ~ncpus:2 in
  let freed = ref false in
  Engine.spawn w ~cpu:0 (fun () -> Rcu_s.defer rcu (fun () -> freed := true));
  Engine.run w;
  check bool "freed immediately (no readers)" true !freed;
  check int "immediate count" 1 (Rcu_s.immediate rcu)

let test_rcu_grace_period () =
  let w = Engine.create ~ncpus:3 in
  let rcu = Rcu_s.make ~ncpus:3 in
  let freed_at = ref (-1) in
  Engine.spawn w ~cpu:0 (fun () ->
      Rcu_s.read_lock rcu;
      Engine.tick 5_000;
      Rcu_s.read_unlock rcu);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 100;
      Rcu_s.defer rcu (fun () -> freed_at := Engine.now ()));
  Engine.run w;
  check bool "free deferred past reader exit" true (!freed_at >= 5_000)

let test_rcu_nested_read_sections () =
  let w = Engine.create ~ncpus:2 in
  let rcu = Rcu_s.make ~ncpus:2 in
  let freed_before_outer_exit = ref false in
  Engine.spawn w ~cpu:0 (fun () ->
      Rcu_s.read_lock rcu;
      Rcu_s.read_lock rcu;
      Engine.tick 1_000;
      Rcu_s.read_unlock rcu;
      (* Still inside the outer section. *)
      Engine.tick 1_000;
      Rcu_s.read_unlock rcu);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 500;
      Rcu_s.defer rcu (fun () ->
          if Rcu_s.in_read_section rcu ~cpu:0 then
            freed_before_outer_exit := true));
  Engine.run w;
  check bool "nested section respected" false !freed_before_outer_exit

let test_rcu_synchronize () =
  let w = Engine.create ~ncpus:2 in
  let rcu = Rcu_s.make ~ncpus:2 in
  let sync_done_at = ref (-1) in
  Engine.spawn w ~cpu:0 (fun () ->
      Rcu_s.read_lock rcu;
      Engine.tick 3_000;
      Rcu_s.read_unlock rcu);
  Engine.spawn w ~cpu:1 (fun () ->
      Engine.tick 10;
      Rcu_s.synchronize rcu;
      sync_done_at := Engine.now ());
  Engine.run w;
  check bool "synchronize waited" true (!sync_done_at >= 3_000)

(* -- Determinism -- *)

let run_chaos seed =
  let n = 4 in
  let w = Engine.create ~ncpus:n in
  let m = Mutex_s.make () in
  let l = Rwlock_s.make () in
  let acc = ref 0 in
  for c = 0 to n - 1 do
    let rng = Mm_util.Rng.create ~seed:(seed + c) in
    Engine.spawn w ~cpu:c (fun () ->
        for _ = 1 to 30 do
          match Mm_util.Rng.int rng 3 with
          | 0 ->
            Mutex_s.lock m;
            acc := !acc + 1;
            Engine.tick (Mm_util.Rng.int rng 100);
            Mutex_s.unlock m
          | 1 ->
            Rwlock_s.read_lock l;
            Engine.tick (Mm_util.Rng.int rng 50);
            Rwlock_s.read_unlock l
          | _ ->
            Rwlock_s.write_lock l;
            acc := !acc * 3 mod 1_000_003;
            Rwlock_s.write_unlock l
        done)
  done;
  Engine.run w;
  (!acc, Engine.max_time w, (Engine.stats w).Engine.rmws)

let test_determinism () =
  let a = run_chaos 42 in
  let b = run_chaos 42 in
  let c = run_chaos 43 in
  check bool "same seed, same run" true (a = b);
  check bool "different seed differs" true (a <> c)

(* -- Pqueue -- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:5 ~key:0 ~seq:0 "c";
  Pqueue.push q ~time:1 ~key:0 ~seq:1 "a";
  Pqueue.push q ~time:5 ~key:0 ~seq:2 "d";
  Pqueue.push q ~time:2 ~key:0 ~seq:3 "b";
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (_, v) ->
      out := v :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d" ]
    (List.rev !out)

let pqueue_prop =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Pqueue.create () in
      List.iteri (fun i t -> Pqueue.push q ~time:t ~key:0 ~seq:i t) times;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

(* -- Scheduler tie-break policies -- *)

(* Four fibers contend for one mutex from time 0: every spawn event and
   every serialize re-entry is a same-time tie, so the acquisition order
   is decided purely by the policy. *)
let run_tie_scenario sched =
  let w = Engine.create_sched ~sched ~ncpus:4 in
  let m = Mutex_s.make () in
  let order = ref [] in
  for c = 0 to 3 do
    Engine.spawn w ~cpu:c (fun () ->
        Mutex_s.lock m;
        order := c :: !order;
        Engine.tick 10;
        Mutex_s.unlock m)
  done;
  Engine.run w;
  List.rev !order

(* Golden: the fifo policy must keep the engine's historical
   deterministic order, bit for bit. If this changes, every golden
   digest in the repository (fig1 etc.) changes with it — an intended
   change must update both and say so in review. *)
let test_sched_default_golden () =
  Alcotest.(check (list int))
    "default tie-break order" [ 0; 1; 2; 3 ]
    (run_tie_scenario (Sched.fifo ()))

let test_sched_random_permutes () =
  let base = run_tie_scenario (Sched.fifo ()) in
  let seeds = List.init 20 (fun i -> i + 1) in
  let permuted =
    List.exists
      (fun seed -> run_tie_scenario (Sched.random ~seed ()) <> base)
      seeds
  in
  check bool "some seed permutes the tie order" true permuted;
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        "same seed reproduces"
        (run_tie_scenario (Sched.random ~seed ()))
        (run_tie_scenario (Sched.random ~seed ())))
    seeds

let test_sched_replay_reproduces () =
  List.iter
    (fun seed ->
      let recording = Sched.random ~seed () in
      let order = run_tie_scenario recording in
      let keys = Sched.recorded recording in
      Alcotest.(check (list int))
        "replayed keys give the same run" order
        (run_tie_scenario (Sched.replay keys));
      (* A truncated key array is still a valid (different or equal)
         deterministic schedule: keys past the end default to 0. *)
      let half = Array.sub keys 0 (Array.length keys / 2) in
      Alcotest.(check (list int))
        "truncated replay is deterministic"
        (run_tie_scenario (Sched.replay half))
        (run_tie_scenario (Sched.replay half)))
    [ 1; 7; 42 ]

(* -- Held-fiber forms equal the lookup forms --

   Random programs of lock, rwlock and RCU transitions on 2-4 fibers run
   twice under one random schedule: once through the forms that look
   the running fiber up per call, once through the [_on] forms on the
   fiber each program looked up once. Clocks, final lock states, RCU
   callback times and the traced event streams must be equal. Each
   program step takes at most one lock and releases it, and only a
   fiber holding nothing waits for a grace period, so no program
   deadlocks. *)

type step =
  | Mutex of int * int (* lock, hold ticks *)
  | Try_mutex of int * int
  | Read of int * int
  | Write of int * int
  | Downgrade of int * int * int (* write, downgrade, read *)
  | Upgrade of int * int * int (* read, upgrade, write *)
  | Rcu_read of int
  | Rcu_mutex of int * int (* a mutex section inside a read section *)
  | Defer of int
  | Synchronize
  | Tick of int

let step_gen =
  let open QCheck.Gen in
  let lk = int_range 0 1 and hold = int_range 0 40 in
  frequency
    [
      (3, map2 (fun i h -> Mutex (i, h)) lk hold);
      (1, map2 (fun i h -> Try_mutex (i, h)) lk hold);
      (3, map2 (fun i h -> Read (i, h)) lk hold);
      (2, map2 (fun i h -> Write (i, h)) lk hold);
      (1, map3 (fun i a b -> Downgrade (i, a, b)) lk hold hold);
      (1, map3 (fun i a b -> Upgrade (i, a, b)) lk hold hold);
      (2, map (fun h -> Rcu_read h) hold);
      (1, map2 (fun i h -> Rcu_mutex (i, h)) lk hold);
      (1, map (fun k -> Defer k) (int_range 0 99));
      (1, return Synchronize);
      (2, map (fun h -> Tick h) hold);
    ]

let show_step = function
  | Mutex (i, h) -> Printf.sprintf "M%d/%d" i h
  | Try_mutex (i, h) -> Printf.sprintf "T%d/%d" i h
  | Read (i, h) -> Printf.sprintf "R%d/%d" i h
  | Write (i, h) -> Printf.sprintf "W%d/%d" i h
  | Downgrade (i, a, b) -> Printf.sprintf "D%d/%d/%d" i a b
  | Upgrade (i, a, b) -> Printf.sprintf "U%d/%d/%d" i a b
  | Rcu_read h -> Printf.sprintf "rcu/%d" h
  | Rcu_mutex (i, h) -> Printf.sprintf "rcuM%d/%d" i h
  | Defer k -> Printf.sprintf "defer%d" k
  | Synchronize -> "sync"
  | Tick h -> Printf.sprintf "tick%d" h

(* A schedule seed and one program per fiber. *)
let programs_arb =
  let open QCheck.Gen in
  let gen =
    pair (int_range 1 1_000_000)
      (int_range 2 4 >>= fun n ->
       list_repeat n (list_size (int_range 0 12) step_gen))
  in
  QCheck.make gen ~print:(fun (seed, progs) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat " | "
           (List.map
              (fun p -> String.concat " " (List.map show_step p))
              progs)))

type locks = {
  ms : Mutex_s.t array;
  rws : Rwlock_s.t array;
  rcu : Rcu_s.t;
  fired : (int * int) list ref; (* deferred callback, clock it ran at *)
}

let defer_cb l k () = l.fired := (k, Engine.now ()) :: !(l.fired)

(* Each step through the per-call lookup forms... *)
let lookup_step l = function
  | Mutex (i, h) ->
    Mutex_s.lock l.ms.(i);
    Engine.tick h;
    Mutex_s.unlock l.ms.(i)
  | Try_mutex (i, h) ->
    if Mutex_s.try_lock l.ms.(i) then begin
      Engine.tick h;
      Mutex_s.unlock l.ms.(i)
    end
  | Read (i, h) ->
    Rwlock_s.read_lock l.rws.(i);
    Engine.tick h;
    Rwlock_s.read_unlock l.rws.(i)
  | Write (i, h) ->
    Rwlock_s.write_lock l.rws.(i);
    Engine.tick h;
    Rwlock_s.write_unlock l.rws.(i)
  | Downgrade (i, a, b) ->
    Rwlock_s.write_lock l.rws.(i);
    Engine.tick a;
    Rwlock_s.downgrade l.rws.(i);
    Engine.tick b;
    Rwlock_s.read_unlock l.rws.(i)
  | Upgrade (i, a, b) ->
    Rwlock_s.read_lock l.rws.(i);
    Engine.tick a;
    Rwlock_s.upgrade l.rws.(i);
    Engine.tick b;
    Rwlock_s.write_unlock l.rws.(i)
  | Rcu_read h ->
    Rcu_s.read_lock l.rcu;
    Engine.tick h;
    Rcu_s.read_unlock l.rcu
  | Rcu_mutex (i, h) ->
    Rcu_s.read_lock l.rcu;
    Mutex_s.lock l.ms.(i);
    Engine.tick h;
    Mutex_s.unlock l.ms.(i);
    Rcu_s.read_unlock l.rcu
  | Defer k -> Rcu_s.defer l.rcu (defer_cb l k)
  | Synchronize -> Rcu_s.synchronize l.rcu
  | Tick h -> Engine.tick h

(* ...and through the [_on] forms on the fiber the program holds. *)
let held_step f l = function
  | Mutex (i, h) ->
    Mutex_s.lock_on f l.ms.(i);
    Engine.tick_on f h;
    Mutex_s.unlock_on f l.ms.(i)
  | Try_mutex (i, h) ->
    if Mutex_s.try_lock_on f l.ms.(i) then begin
      Engine.tick_on f h;
      Mutex_s.unlock_on f l.ms.(i)
    end
  | Read (i, h) ->
    Rwlock_s.read_lock_on f l.rws.(i);
    Engine.tick_on f h;
    Rwlock_s.read_unlock_on f l.rws.(i)
  | Write (i, h) ->
    Rwlock_s.write_lock_on f l.rws.(i);
    Engine.tick_on f h;
    Rwlock_s.write_unlock_on f l.rws.(i)
  | Downgrade (i, a, b) ->
    Rwlock_s.write_lock_on f l.rws.(i);
    Engine.tick_on f a;
    Rwlock_s.downgrade_on f l.rws.(i);
    Engine.tick_on f b;
    Rwlock_s.read_unlock_on f l.rws.(i)
  | Upgrade (i, a, b) ->
    Rwlock_s.read_lock_on f l.rws.(i);
    Engine.tick_on f a;
    Rwlock_s.upgrade_on f l.rws.(i);
    Engine.tick_on f b;
    Rwlock_s.write_unlock_on f l.rws.(i)
  | Rcu_read h ->
    Rcu_s.read_lock_on f l.rcu;
    Engine.tick_on f h;
    Rcu_s.read_unlock_on f l.rcu
  | Rcu_mutex (i, h) ->
    Rcu_s.read_lock_on f l.rcu;
    Mutex_s.lock_on f l.ms.(i);
    Engine.tick_on f h;
    Mutex_s.unlock_on f l.ms.(i);
    Rcu_s.read_unlock_on f l.rcu
  | Defer k -> Rcu_s.defer_on f l.rcu (defer_cb l k)
  | Synchronize -> Rcu_s.synchronize_on f l.rcu
  | Tick h -> Engine.tick_on f h

(* One traced run: per-CPU clocks, each rwlock's final state, RCU's
   immediate frees, the callbacks' clocks and the event stream. *)
let run_programs ~held (seed, progs) =
  Mm_obs.Trace.start ();
  Rcu_s.reset_ids ();
  let n = List.length progs in
  let w = Engine.create_sched ~sched:(Sched.random ~seed ()) ~ncpus:n in
  let l =
    {
      ms = Array.init 2 (fun _ -> Mutex_s.make ());
      rws = Array.init 2 (fun _ -> Rwlock_s.make ());
      rcu = Rcu_s.make ~ncpus:n;
      fired = ref [];
    }
  in
  List.iteri
    (fun cpu prog ->
      Engine.spawn w ~cpu (fun () ->
          if held then begin
            let f = Engine.fiber () in
            List.iter (held_step f l) prog
          end
          else List.iter (lookup_step l) prog))
    progs;
  Engine.run w;
  let events = Mm_obs.Trace.stop () in
  ( Array.init n (Engine.cpu_time w),
    Array.map
      (fun rw ->
        ( Rwlock_s.readers rw,
          Rwlock_s.writer_active rw,
          Rwlock_s.revocations rw ))
      l.rws,
    Rcu_s.immediate l.rcu,
    List.rev !(l.fired),
    Mm_obs.Trace.to_text events )

let held_forms_prop =
  QCheck.Test.make ~name:"held-fiber lock forms equal the lookup forms"
    ~count:300 programs_arb (fun p ->
      run_programs ~held:false p = run_programs ~held:true p)

(* [Pt.get] and [Pt.set] against [get_on] and [set_on] on one tree: each
   fiber reads and stores entries of two leaf PT pages. *)
type pt_step = Get of int * int | Set of int * int * int (* page, slot, pfn *)

let pt_programs_arb =
  let open QCheck.Gen in
  let page = int_range 0 1 and slot = int_range 0 7 in
  let step =
    frequency
      [
        (3, map2 (fun p i -> Get (p, i)) page slot);
        (2, map3 (fun p i v -> Set (p, i, v)) page slot (int_range 0 3));
      ]
  in
  let gen =
    pair (int_range 1 1_000_000)
      (int_range 2 4 >>= fun n ->
       list_repeat n (list_size (int_range 0 16) step))
  in
  QCheck.make gen

let run_pt_programs ~held (seed, progs) =
  let pt = Mm_pt.Pt.create (Mm_phys.Phys.create ()) Mm_hal.Isa.x86_64 in
  let pages =
    [| Mm_pt.Pt.walk_create pt ~to_level:1 0x4000_0000;
       Mm_pt.Pt.walk_create pt ~to_level:1 0x8000_0000 |]
  in
  let pte v =
    if v = 0 then Mm_hal.Pte.Absent
    else Mm_hal.Pte.leaf ~pfn:(v * 16) ~perm:Mm_hal.Perm.rw ()
  in
  let n = List.length progs in
  let w = Engine.create_sched ~sched:(Sched.random ~seed ()) ~ncpus:n in
  let reads = Array.make n [] in
  List.iteri
    (fun cpu prog ->
      Engine.spawn w ~cpu (fun () ->
          let fo = Engine.current () in
          List.iter
            (function
              | Get (p, i) ->
                let e =
                  if held then Mm_pt.Pt.get_on fo pt pages.(p) i
                  else Mm_pt.Pt.get pt pages.(p) i
                in
                reads.(cpu) <- e :: reads.(cpu)
              | Set (p, i, v) ->
                if held then Mm_pt.Pt.set_on fo pt pages.(p) i (pte v)
                else Mm_pt.Pt.set pt pages.(p) i (pte v))
            prog))
    progs;
  Engine.run w;
  ( Array.init n (Engine.cpu_time w),
    Array.map
      (fun (node : unit Mm_pt.Pt.node) ->
        ( Engine.Line.avail node.Mm_pt.Pt.line,
          Engine.Line.owner node.Mm_pt.Pt.line,
          List.init 8 (Mm_pt.Pt.get_uncharged pt node) ))
      pages,
    reads )

let pt_held_forms_prop =
  QCheck.Test.make ~name:"Pt.get_on/set_on equal Pt.get/set" ~count:200
    pt_programs_arb (fun p ->
      run_pt_programs ~held:false p = run_pt_programs ~held:true p)

let () =
  Alcotest.run "mm_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "tick accumulates" `Quick test_tick_accumulates;
          Alcotest.test_case "cpu ids" `Quick test_cpu_id;
          Alcotest.test_case "park/unpark" `Quick test_park_unpark;
          Alcotest.test_case "charge" `Quick test_charge;
          Alcotest.test_case "fiber across park" `Quick test_fiber_across_park;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "serialize time order" `Quick
            test_serialize_orders_by_time;
        ] );
      ( "line",
        [
          Alcotest.test_case "rmw serializes" `Quick test_line_rmw_serializes;
          Alcotest.test_case "reads concurrent" `Quick
            test_line_reads_do_not_serialize;
          Alcotest.test_case "local rmw cheap" `Quick test_line_local_rmw_cheap;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "wrong unlock" `Quick test_mutex_wrong_unlock;
          Alcotest.test_case "fifo handoff" `Quick test_mutex_fifo;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers concurrent" `Quick
            test_rwlock_readers_concurrent;
          Alcotest.test_case "writer excludes" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "phase fair" `Quick test_rwlock_phase_fair;
          Alcotest.test_case "downgrade" `Quick test_rwlock_downgrade;
          Alcotest.test_case "upgrade" `Quick test_rwlock_upgrade;
          Alcotest.test_case "bravo revocation" `Quick
            test_bravo_revocation_cost;
        ] );
      ( "rcu",
        [
          Alcotest.test_case "immediate free" `Quick test_rcu_immediate_free;
          Alcotest.test_case "grace period" `Quick test_rcu_grace_period;
          Alcotest.test_case "nested sections" `Quick
            test_rcu_nested_read_sections;
          Alcotest.test_case "synchronize" `Quick test_rcu_synchronize;
        ] );
      ( "determinism",
        [ Alcotest.test_case "chaos runs repeat" `Quick test_determinism ] );
      ( "sched",
        [
          Alcotest.test_case "default order golden" `Quick
            test_sched_default_golden;
          Alcotest.test_case "random permutes ties" `Quick
            test_sched_random_permutes;
          Alcotest.test_case "replay reproduces" `Quick
            test_sched_replay_reproduces;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          QCheck_alcotest.to_alcotest pqueue_prop;
        ] );
      ( "held fiber",
        [
          QCheck_alcotest.to_alcotest held_forms_prop;
          QCheck_alcotest.to_alcotest pt_held_forms_prop;
        ] );
    ]
