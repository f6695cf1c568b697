(* Preemption-based RCU model (paper §4.5: "a simple preemption-based RCU").

   Read-side critical sections are nearly free: entering/leaving toggles a
   per-CPU nesting counter (no shared-line traffic) — this is what makes
   CortenMM_adv's lock-free traversal phase scale.

   Deferred frees ("the RCU monitor", Fig 6 L35): when a PT page is retired
   the monitor records which CPUs are currently inside a read-side critical
   section; the free callback runs once all of them have exited (the grace
   period). A CPU that retires an object while itself inside a read section
   waits for its own exit too. *)

type callback = {
  cb_id : int; (* correlation id (Rcu_retire -> Rcu_fire) *)
  waiting_on : bool array; (* per-CPU: still inside its read section *)
  mutable remaining : int;
  fn : unit -> unit;
}

(* Callback correlation ids: domain-local, unique across RCU instances
   within one observed run. Parallel drivers reset them at task start
   ([Mm_workloads.Runner.reset_world_state]) so the ids a run reports
   do not depend on what ran before it on the same domain. *)
let next_cb_id_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let fresh_cb_id () =
  let r = Domain.DLS.get next_cb_id_key in
  incr r;
  !r

let reset_ids () = Domain.DLS.get next_cb_id_key := 0

(* Fault injection for schedcheck's mutant-catching harness: run every
   deferred callback immediately, ignoring the grace period — the
   use-after-free class of RCU bug. Never set outside the harness.
   Domain-local so concurrent schedcheck shards cannot disturb each
   other's mutants. *)
let mutant_no_grace_period_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let mutant_no_grace_period () = Domain.DLS.get mutant_no_grace_period_key
let set_mutant_no_grace_period v = mutant_no_grace_period () := v

type t = {
  nesting : int array;
  mutable pending : callback list;
  mutable immediate : int; (* frees that needed no grace period *)
}

let make ~ncpus =
  {
    nesting = Array.make ncpus 0;
    pending = [];
    immediate = 0;
  }

let read_lock_on (f : Engine.fiber) t =
  Engine.serialize_on f;
  Engine.tick_on f Cost.rcu_toggle;
  let c = f.f_cpu in
  t.nesting.(c) <- t.nesting.(c) + 1;
  if t.nesting.(c) = 1 && Mm_obs.Trace.on () then
    Engine.obs_on f Mm_obs.Event.Rcu_enter

let in_read_section t ~cpu = t.nesting.(cpu) > 0

(* [cpu] left its read section: count it out of every pending grace
   period, and report whether one completed. *)
let rec count_out cpu completed = function
  | [] -> completed
  | cb :: rest ->
    if cb.waiting_on.(cpu) then begin
      cb.waiting_on.(cpu) <- false;
      cb.remaining <- cb.remaining - 1
    end;
    count_out cpu (completed || cb.remaining = 0) rest

(* Most read-side exits complete no grace period, so the pending list
   is split only when one did; [ready] keeps its callbacks' order. [f]
   is the exiting fiber, whose context the callbacks run in. *)
let quiesce f t cpu =
  if count_out cpu false t.pending then begin
    let ready, rest = List.partition (fun cb -> cb.remaining = 0) t.pending in
    t.pending <- rest;
    if Mm_obs.Trace.on () then begin
      let n = List.length ready in
      Mm_obs.Metrics.add (Mm_obs.Metrics.counter "rcu.gp_callbacks") n;
      Engine.obs_on f (Mm_obs.Event.Rcu_gp { callbacks = n })
    end;
    List.iter
      (fun cb ->
        if Mm_obs.Trace.on () then
          Engine.obs_on f (Mm_obs.Event.Rcu_fire { cb = cb.cb_id });
        cb.fn ())
      ready
  end

let read_unlock_on (f : Engine.fiber) t =
  Engine.serialize_on f;
  Engine.tick_on f Cost.rcu_toggle;
  let c = f.f_cpu in
  if t.nesting.(c) <= 0 then failwith "Rcu_s.read_unlock: not in read section";
  t.nesting.(c) <- t.nesting.(c) - 1;
  if t.nesting.(c) = 0 then begin
    (* Exit is announced before [quiesce] so callbacks firing in this
       very quiescent state observe the reader as already gone. *)
    if Mm_obs.Trace.on () then Engine.obs_on f Mm_obs.Event.Rcu_exit;
    quiesce f t c
  end

let snapshot_readers t =
  let n = Array.length t.nesting in
  let waiting = Array.make n false in
  let remaining = ref 0 in
  for c = 0 to n - 1 do
    if t.nesting.(c) > 0 then begin
      waiting.(c) <- true;
      incr remaining
    end
  done;
  (waiting, !remaining)

let defer_on (f : Engine.fiber) t fn =
  Engine.serialize_on f;
  Engine.tick_on f Cost.cache_hit;
  let waiting, remaining = snapshot_readers t in
  let cb_id =
    if Mm_obs.Trace.on () then begin
      let cb = fresh_cb_id () in
      Engine.obs_on f
        (Mm_obs.Event.Rcu_retire { cb; waiting = Array.copy waiting });
      cb
    end
    else 0
  in
  if remaining = 0 || !(mutant_no_grace_period ()) then begin
    t.immediate <- t.immediate + 1;
    if Mm_obs.Trace.on () then
      Engine.obs_on f (Mm_obs.Event.Rcu_fire { cb = cb_id });
    fn ()
  end
  else t.pending <- { cb_id; waiting_on = waiting; remaining; fn } :: t.pending;
  if Mm_obs.Trace.on () then begin
    Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "rcu.deferred");
    Engine.obs_on f (Mm_obs.Event.Rcu_defer { pending = List.length t.pending })
  end

let synchronize_on (f : Engine.fiber) t =
  Engine.serialize_on f;
  let _, remaining = snapshot_readers t in
  if remaining > 0 then
    Engine.park (fun p ->
        let waiting, remaining = snapshot_readers t in
        if remaining = 0 then Engine.unpark p ~at:(Engine.parked_time p)
        else
          t.pending <-
            {
              cb_id = (if Mm_obs.Trace.on () then fresh_cb_id () else 0);
              waiting_on = waiting;
              remaining;
              fn = (fun () -> Engine.unpark p ~at:(Engine.now ()));
            }
            :: t.pending)

let read_lock t = read_lock_on (Engine.fiber ()) t
let read_unlock t = read_unlock_on (Engine.fiber ()) t
let defer t fn = defer_on (Engine.fiber ()) t fn
let synchronize t = synchronize_on (Engine.fiber ()) t
let immediate t = t.immediate
