(* MCS-style queued spin-lock model.

   An MCS lock's contention behaviour: acquisition swaps the tail pointer
   (one RMW on the lock's cache line), waiters spin on their *own* node
   (local, free), and release hands the lock to the successor with a single
   line transfer. We model exactly that: one [Line.rmw] per acquire, FIFO
   queue of parked fibers, and a [line_transfer] handoff latency.
   CortenMM_adv uses this as the per-PT-page lock (paper §4.5).

   Observability: each lock carries a cheap integer id; events are
   produced only while the domain has a subscriber ([Trace.on]), and the
   contention profile and lock histograms only while it records a ring
   ([Trace.recording]), since only ring readers consume them; emitting
   never advances virtual time. Wait time is the parked duration (cycles
   serialized behind the holder), not the line-transfer cost of an
   uncontended acquire. *)

type t = {
  line : Engine.Line.t;
  id : int;
  mutable name : string option;
  mutable locked : bool;
  mutable holder : int; (* cpu, or -1 *)
  mutable acquired_at : int; (* virtual time of last acquisition *)
  waiters : Engine.parked Queue.t;
}

let make ?id ?name () =
  {
    line = Engine.Line.make ();
    id =
      (match id with Some id -> id | None -> Mm_obs.Contention.fresh_id ());
    name;
    locked = false;
    holder = -1;
    acquired_at = 0;
    waiters = Queue.create ();
  }

let set_name t name = t.name <- Some name

let profile t =
  Mm_obs.Contention.get ~id:t.id ~kind:Mm_obs.Event.Mutex ~name:(fun () ->
      match t.name with
      | Some n -> n
      | None -> Printf.sprintf "mutex#%d" t.id)

(* [f] is the acquiring fiber, which the caller looked up once per
   operation. *)
let note_acquired (f : Engine.fiber) t ~wait =
  t.acquired_at <- f.f_time;
  if Mm_obs.Trace.on () then begin
    if Mm_obs.Trace.recording () then begin
      Mm_obs.Contention.acquired (profile t) ~wait;
      Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "lock.wait_cycles") wait
    end;
    Engine.obs_on f
      (Mm_obs.Event.Lock_acquire { lock = t.id; kind = Mm_obs.Event.Mutex; wait })
  end

let lock_on (f : Engine.fiber) t =
  Engine.Line.rmw_on f t.line;
  if not t.locked then begin
    t.locked <- true;
    t.holder <- f.f_cpu;
    note_acquired f t ~wait:0
  end
  else begin
    if Mm_obs.Trace.on () then
      Engine.obs_on f
        (Mm_obs.Event.Lock_contend { lock = t.id; kind = Mm_obs.Event.Mutex });
    let t0 = f.f_time in
    Engine.park (fun p -> Queue.push p t.waiters);
    (* We resume as the holder: [unlock] set [holder] before unparking. *)
    note_acquired f t ~wait:(f.f_time - t0)
  end

let try_lock_on (f : Engine.fiber) t =
  Engine.Line.rmw_on f t.line;
  if t.locked then false
  else begin
    t.locked <- true;
    t.holder <- f.f_cpu;
    note_acquired f t ~wait:0;
    true
  end

let unlock_on (f : Engine.fiber) t =
  Engine.serialize_on f;
  if not t.locked then failwith "Mutex_s.unlock: not locked";
  if t.holder <> f.f_cpu then failwith "Mutex_s.unlock: unlocked by non-holder";
  Engine.tick_on f Cost.cache_hit;
  if Mm_obs.Trace.on () then begin
    let held = f.f_time - t.acquired_at in
    if Mm_obs.Trace.recording () then begin
      Mm_obs.Contention.released (profile t) ~held;
      Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "lock.hold_cycles") held
    end;
    Engine.obs_on f
      (Mm_obs.Event.Lock_release { lock = t.id; kind = Mm_obs.Event.Mutex; held })
  end;
  match Queue.take_opt t.waiters with
  | None ->
    t.locked <- false;
    t.holder <- -1
  | Some p ->
    t.holder <- Engine.parked_cpu p;
    (* Handoff: the successor observes the release after a line transfer. *)
    Engine.unpark p ~at:(f.f_time + Cost.line_transfer)

let lock t = lock_on (Engine.fiber ()) t
let try_lock t = try_lock_on (Engine.fiber ()) t
let unlock t = unlock_on (Engine.fiber ()) t
let id t = t.id
