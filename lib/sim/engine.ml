(* Deterministic discrete-event multicore simulator.

   Each virtual CPU runs a *fiber*: an ordinary OCaml computation that is
   suspended with an effect handler whenever it interacts with simulated
   shared state. The scheduler replays suspended fibers in virtual-time
   order (ties broken by a sequence number, so runs are bit-reproducible).

   Time model:
   - Local computation advances only the fiber's own clock ([tick]).
   - Shared-memory interactions are ordered globally: before inspecting or
     mutating shared simulator state a fiber calls [serialize], which
     re-enqueues it so the scheduler resumes fibers in virtual-time order.
   - Cache-line contention is modelled by {!Line}: an atomic RMW on a line
     must wait until the line's previous exclusive use completes and pays a
     transfer cost when the line was last owned by another CPU. This single
     mechanism is what makes a global lock word a scalability bottleneck
     and lock-free traversal scalable, reproducing the paper's multicore
     shapes.

   The simulation is cooperative and single-(host-)threaded: exactly one
   fiber executes at a time, so plain OCaml mutation inside simulated
   critical sections is safe. *)

type stats = {
  mutable events : int;
  mutable parks : int;
  mutable wakes : int; (* explicit unparks (parks minus self-serializations
                          that were still pending at exit — so parks >= wakes) *)
  mutable rmws : int;
  mutable line_stalls : int; (* RMWs that had to wait for the line *)
  mutable max_ready_queue : int; (* high-water mark of runnable fibers *)
}

(* A fiber carries its world, so code that already holds the running
   fiber reaches the world without the domain-local lookup. The record is
   the same across parks, so a caller may keep it while it waits. *)
type fiber = {
  f_id : int;
  f_cpu : int;
  mutable f_time : int;
  mutable f_done : bool;
  f_world : world;
}

and world = {
  ncpus : int;
  owner : int; (* id of the domain that created the world; a world may
                  only ever be touched from that domain *)
  sched : Sched.t; (* tie-break policy: one key per event push *)
  mutable seq : int;
  mutable next_fiber_id : int;
  queue : (unit -> unit) Pqueue.t;
  mutable current : fiber option;
  mutable live : int; (* fibers spawned and not finished *)
  mutable runnable : int; (* fibers currently in the event queue *)
  cpu_time : int array;
  stats : stats;
}

type parked = {
  pk_fiber : fiber;
  pk_k : (unit, unit) Effect.Deep.continuation;
  mutable pk_live : bool;
}

type _ Effect.t += Park : (parked -> unit) -> unit Effect.t

exception Deadlock of string

(* The "currently running simulation" pointer is domain-local: each
   domain of a parallel driver (lib/par) runs its own independent
   single-fiber worlds, and one domain's run must be invisible to the
   others. Within a domain the invariant is unchanged — at most one
   world runs at a time. *)
let cur_world_key : world option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cur_world () = Domain.DLS.get cur_world_key

(* Ownership assertion: worlds are confined to the domain that created
   them. The check is two int comparisons on the cold paths (spawn/run),
   so it stays on unconditionally; it exists to catch a parallel driver
   accidentally sharing a world across domains, which would race on all
   of the world's plain mutable state. *)
let self_id () = (Domain.self () :> int)

let check_owner w fn =
  let d = self_id () in
  if d <> w.owner then
    failwith
      (Printf.sprintf
         "Engine.%s: world owned by domain %d touched from domain %d \
          (worlds are domain-confined: construct, run and drop a world \
          inside one parallel task)"
         fn w.owner d)

let create_sched ~sched ~ncpus =
  if ncpus <= 0 then invalid_arg "Engine.create: ncpus";
  {
    ncpus;
    owner = self_id ();
    sched;
    seq = 0;
    next_fiber_id = 0;
    queue = Pqueue.create ();
    current = None;
    live = 0;
    runnable = 0;
    cpu_time = Array.make ncpus 0;
    stats =
      {
        events = 0;
        parks = 0;
        wakes = 0;
        rmws = 0;
        line_stalls = 0;
        max_ready_queue = 0;
      };
  }

let create ~ncpus = create_sched ~sched:(Sched.fifo ()) ~ncpus

let world () =
  match !(cur_world ()) with
  | Some w -> w
  | None -> failwith "Engine: no simulation running"

(* The running fiber, if any, at the cost of one domain-local lookup.
   Hot paths call this (or [fiber]) once per operation and pass the
   fiber down to the [_on] primitives below. *)
let current () =
  match !(cur_world ()) with Some w -> w.current | None -> None

let fiber () =
  match !(cur_world ()) with
  | Some { current = Some f; _ } -> f
  | Some _ -> failwith "Engine: not inside a fiber"
  | None -> failwith "Engine: no simulation running"

let now () = (fiber ()).f_time
let cpu_id () = (fiber ()).f_cpu
let ncpus () = (world ()).ncpus
let ncpus_on f = f.f_world.ncpus
let in_fiber () = match current () with Some _ -> true | None -> false
let cpu_or_zero () = match current () with Some f -> f.f_cpu | None -> 0

let tick_on f c =
  if c < 0 then invalid_arg "Engine.tick: negative cost";
  f.f_time <- f.f_time + c

let tick c = tick_on (fiber ()) c
let charge c = match current () with Some f -> tick_on f c | None -> ()

let advance_to t =
  let f = fiber () in
  if t > f.f_time then f.f_time <- t

let push_event w ~time run =
  w.seq <- w.seq + 1;
  Pqueue.push w.queue ~time ~key:(Sched.next_key w.sched) ~seq:w.seq run

let park register = Effect.perform (Park register)

let note_runnable w =
  if w.runnable > w.stats.max_ready_queue then
    w.stats.max_ready_queue <- w.runnable

let unpark p ~at =
  if not p.pk_live then failwith "Engine.unpark: fiber already unparked";
  p.pk_live <- false;
  let f = p.pk_fiber in
  let w = f.f_world in
  w.stats.wakes <- w.stats.wakes + 1;
  w.runnable <- w.runnable + 1;
  note_runnable w;
  push_event w ~time:at (fun () ->
      if at > f.f_time then f.f_time <- at;
      w.current <- Some f;
      w.runnable <- w.runnable - 1;
      Effect.Deep.continue p.pk_k ())

let parked_time p = p.pk_fiber.f_time
let parked_cpu p = p.pk_fiber.f_cpu

(* Re-enter the event queue at the current virtual time so that shared-state
   operations apply in global time order.

   Fast path: parking would push an event at time f_time; when every queued
   event has a strictly later time, that event pops first no matter what tie
   key the policy would assign (keys only order equal times), so the
   scheduler would resume us straight away. Skip the park entirely — under
   any policy the execution order (and therefore every simulated result) is
   identical, without capturing a continuation or touching the event queue.
   This removes the dominant host-side cost of uncontended simulated lock
   and cache-line operations. *)
let serialize_on f =
  if Pqueue.min_time f.f_world.queue <= f.f_time then
    park (fun p -> unpark p ~at:(parked_time p))

let serialize () = serialize_on (fiber ())

let handler (w : world) (f : fiber) =
  {
    Effect.Deep.retc =
      (fun () ->
        f.f_done <- true;
        w.live <- w.live - 1;
        if f.f_time > w.cpu_time.(f.f_cpu) then
          w.cpu_time.(f.f_cpu) <- f.f_time);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Park register ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              w.stats.parks <- w.stats.parks + 1;
              register { pk_fiber = f; pk_k = k; pk_live = true })
        | _ -> None);
  }

let spawn w ~cpu prog =
  check_owner w "spawn";
  if cpu < 0 || cpu >= w.ncpus then invalid_arg "Engine.spawn: bad cpu";
  let f =
    {
      f_id = w.next_fiber_id;
      f_cpu = cpu;
      f_time = 0;
      f_done = false;
      f_world = w;
    }
  in
  w.next_fiber_id <- w.next_fiber_id + 1;
  w.live <- w.live + 1;
  w.runnable <- w.runnable + 1;
  note_runnable w;
  push_event w ~time:0 (fun () ->
      w.current <- Some f;
      w.runnable <- w.runnable - 1;
      Effect.Deep.match_with prog () (handler w f))

let run w =
  check_owner w "run";
  let cw = cur_world () in
  (match !cw with
  | Some _ -> failwith "Engine.run: nested simulations are not supported"
  | None -> ());
  cw := Some w;
  let finish () = cw := None in
  (try
     let rec loop () =
       match Pqueue.pop w.queue with
       | None ->
         if w.live > 0 then
           raise
             (Deadlock
                (Printf.sprintf
                   "simulation stuck: %d fiber(s) parked with no wake-up"
                   w.live))
       | Some (_, run_event) ->
         w.stats.events <- w.stats.events + 1;
         run_event ();
         w.current <- None;
         loop ()
     in
     loop ()
   with e ->
     finish ();
     raise e);
  (* A clean finish must leave internally consistent stats: every wake
     resumed a prior park, and no fiber is still queued. *)
  if w.stats.parks < w.stats.wakes then
    failwith "Engine.run: stats inconsistent (wakes exceed parks)";
  if w.runnable <> 0 then
    failwith "Engine.run: stats inconsistent (runnable fibers after finish)";
  finish ()

let cpu_time w cpu = w.cpu_time.(cpu)
let max_time w = Array.fold_left max 0 w.cpu_time
let stats w = w.stats

(* The one emit path: stamp an event with the emitting fiber's virtual
   time and CPU (cpu -1 outside a fiber). Call sites guard with
   [Mm_obs.Trace.on ()] so the payload is never even allocated while no
   subscriber listens; emitting never touches [f_time], so observed and
   unobserved runs are bit-identical. *)
let obs_on f payload = Mm_obs.Trace.emit ~time:f.f_time ~cpu:f.f_cpu payload

let obs payload =
  match current () with
  | Some f -> obs_on f payload
  | None -> Mm_obs.Trace.emit ~time:0 ~cpu:(-1) payload

(* -- Cache-line contention model -- *)

module Line = struct
  type t = {
    mutable avail : int; (* virtual time at which the line is next free *)
    mutable owner : int; (* cpu holding it exclusive; -1 none; -2 shared *)
  }

  let make () = { avail = 0; owner = -1 }

  (* Atomic read-modify-write: serializes through the line. *)
  let rmw_on f t =
    serialize_on f;
    let w = f.f_world in
    w.stats.rmws <- w.stats.rmws + 1;
    let start =
      if t.avail > f.f_time then begin
        w.stats.line_stalls <- w.stats.line_stalls + 1;
        t.avail
      end
      else f.f_time
    in
    let cost = if t.owner = f.f_cpu then Cost.atomic_local else Cost.line_transfer in
    let fin = start + cost in
    t.avail <- fin;
    t.owner <- f.f_cpu;
    f.f_time <- fin

  (* Plain shared read: pays a miss when the line is exclusive elsewhere
     but does not take ownership, so concurrent readers do not serialize —
     and once the line is in shared state, further reads hit. This
     asymmetry is exactly why RCU-style lock-free traversal scales and
     reader-counter rwlocks do not. *)
  let read_on f t =
    let cost =
      if t.owner >= 0 && t.owner <> f.f_cpu then begin
        t.owner <- -2 (* downgrade M -> S *);
        Cost.cache_shared
      end
      else Cost.cache_hit
    in
    let start = if t.avail > f.f_time then t.avail else f.f_time in
    f.f_time <- start + cost

  (* Plain (non-atomic) write by a single owner, e.g. a store inside a
     critical section. Cheaper than an RMW but still invalidates sharers. *)
  let write_on f t =
    serialize_on f;
    let start = if t.avail > f.f_time then t.avail else f.f_time in
    let cost = if t.owner = f.f_cpu then Cost.cache_hit else Cost.line_transfer in
    let fin = start + cost in
    t.avail <- fin;
    t.owner <- f.f_cpu;
    f.f_time <- fin

  let rmw t = rmw_on (fiber ()) t
  let read t = read_on (fiber ()) t
  let avail t = t.avail
  let owner t = t.owner
end
