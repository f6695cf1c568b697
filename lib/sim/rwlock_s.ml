(* Phase-fair readers-writer lock model with optional BRAVO reader bias.

   CortenMM_rw uses "BRAVO-pfqlock" (paper §4.5): a phase-fair queued
   rwlock (Brandenburg & Anderson) whose readers are made cheap by BRAVO
   (Dice & Kogan): while no writer is around, readers publish themselves in
   a per-CPU visible-readers table (no shared-line RMW); a writer revokes
   the bias by scanning the table (cost proportional to the CPU count),
   after which readers fall back to RMWs on the lock word until the lock
   has been writer-free for a while.

   Phase-fairness: a pending writer blocks new readers; when a writer
   releases, the entire waiting reader phase is admitted at once.

   This captures the scalability difference the paper measures between
   CortenMM_rw (reader RMWs or revocation scans on the root lock) and
   CortenMM_adv (no reader-side shared writes at all).

   Observability mirrors {!Mutex_s}: integer id at creation, lazy profile
   entry, events only while the domain has a subscriber, profile and
   histograms only while it records a ring. Wait time is the
   parked duration; hold time is tracked for the exclusive (writer) side
   only — readers overlap, so a per-reader hold would need per-fiber state
   the model doesn't keep. *)

type t = {
  line : Engine.Line.t;
  id : int;
  mutable name : string option;
  bravo_capable : bool;
  mutable bravo : bool;
  mutable reads_since_writer : int;
  mutable readers : int;
  mutable writer : bool;
  mutable writer_cpu : int;
  mutable writer_since : int; (* virtual time the writer acquired *)
  rwait : Engine.parked Queue.t;
  wwait : Engine.parked Queue.t;
  mutable revocations : int;
}

let bravo_reenable_threshold = 16

let make ?(bravo = true) ?id ?name () =
  {
    line = Engine.Line.make ();
    id =
      (match id with Some id -> id | None -> Mm_obs.Contention.fresh_id ());
    name;
    bravo_capable = bravo;
    bravo;
    reads_since_writer = 0;
    readers = 0;
    writer = false;
    writer_cpu = -1;
    writer_since = 0;
    rwait = Queue.create ();
    wwait = Queue.create ();
    revocations = 0;
  }

let set_name t name = t.name <- Some name

let profile t =
  Mm_obs.Contention.get ~id:t.id ~kind:Mm_obs.Event.Rw_write ~name:(fun () ->
      match t.name with
      | Some n -> n
      | None -> Printf.sprintf "rwlock#%d" t.id)

let note_acquired t ~kind ~wait =
  if Mm_obs.Trace.on () then begin
    if Mm_obs.Trace.recording () then begin
      Mm_obs.Contention.acquired (profile t) ~wait;
      Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "lock.wait_cycles") wait
    end;
    Engine.obs (Mm_obs.Event.Lock_acquire { lock = t.id; kind; wait })
  end

let note_contend t ~kind =
  if Mm_obs.Trace.on () then
    Engine.obs (Mm_obs.Event.Lock_contend { lock = t.id; kind })

let reader_entry_cost f t =
  if t.bravo then Engine.tick_on f Cost.bravo_read
  else Engine.Line.rmw_on f t.line

let maybe_reenable_bravo t =
  if
    t.bravo_capable && (not t.bravo) && (not t.writer)
    && Queue.is_empty t.wwait
    && t.reads_since_writer >= bravo_reenable_threshold
  then t.bravo <- true

let read_lock t =
  let f = Engine.fiber () in
  Engine.serialize_on f;
  if t.writer || not (Queue.is_empty t.wwait) then begin
    (* Phase-fair: a pending writer blocks new readers. The waker updates
       the lock state on our behalf before unparking us. *)
    note_contend t ~kind:Mm_obs.Event.Rw_read;
    let t0 = f.f_time in
    Engine.park (fun p -> Queue.push p t.rwait);
    note_acquired t ~kind:Mm_obs.Event.Rw_read ~wait:(f.f_time - t0)
  end
  else begin
    reader_entry_cost f t;
    t.readers <- t.readers + 1;
    t.reads_since_writer <- t.reads_since_writer + 1;
    maybe_reenable_bravo t;
    note_acquired t ~kind:Mm_obs.Event.Rw_read ~wait:0
  end

(* [now] is the releasing fiber's clock. *)
let wake_next_writer t ~now =
  match Queue.take_opt t.wwait with
  | None -> ()
  | Some p ->
    t.writer <- true;
    t.writer_cpu <- Engine.parked_cpu p;
    Engine.unpark p ~at:(now + Cost.line_transfer)

let read_unlock t =
  let f = Engine.fiber () in
  Engine.serialize_on f;
  if t.readers <= 0 then failwith "Rwlock_s.read_unlock: no readers";
  reader_entry_cost f t;
  t.readers <- t.readers - 1;
  if Mm_obs.Trace.on () then
    Engine.obs
      (Mm_obs.Event.Lock_release
         { lock = t.id; kind = Mm_obs.Event.Rw_read; held = 0 });
  if t.readers = 0 && not t.writer then wake_next_writer t ~now:f.f_time

let write_lock t =
  let f = Engine.fiber () in
  Engine.Line.rmw_on f t.line;
  t.reads_since_writer <- 0;
  if t.bravo then begin
    (* Revoke the reader bias: scan the visible-readers table. *)
    t.bravo <- false;
    t.revocations <- t.revocations + 1;
    Engine.tick_on f (Cost.bravo_revoke_per_cpu * Engine.ncpus ())
  end;
  if t.readers = 0 && (not t.writer) && Queue.is_empty t.wwait then begin
    t.writer <- true;
    t.writer_cpu <- f.f_cpu;
    t.writer_since <- f.f_time;
    note_acquired t ~kind:Mm_obs.Event.Rw_write ~wait:0
  end
  else begin
    note_contend t ~kind:Mm_obs.Event.Rw_write;
    let t0 = f.f_time in
    Engine.park (fun p -> Queue.push p t.wwait);
    (* We resume as the writer: [wake_next_writer] set the state. *)
    t.writer_since <- f.f_time;
    note_acquired t ~kind:Mm_obs.Event.Rw_write ~wait:(f.f_time - t0)
  end

let wake_reader_phase t ~now =
  let base = now + Cost.line_transfer in
  let i = ref 0 in
  let admit p =
    t.readers <- t.readers + 1;
    (* Waking readers still serialize lightly on the lock word. *)
    Engine.unpark p ~at:(base + (!i * Cost.atomic_local));
    incr i
  in
  Queue.iter admit t.rwait;
  Queue.clear t.rwait

let note_writer_release (f : Engine.fiber) t =
  if Mm_obs.Trace.on () then begin
    let held = f.f_time - t.writer_since in
    if Mm_obs.Trace.recording () then begin
      Mm_obs.Contention.released (profile t) ~held;
      Mm_obs.Metrics.observe (Mm_obs.Metrics.histogram "lock.hold_cycles") held
    end;
    Engine.obs
      (Mm_obs.Event.Lock_release
         { lock = t.id; kind = Mm_obs.Event.Rw_write; held })
  end

(* Fault injection for schedcheck's mutant-catching harness: a buggy
   write_unlock that forgets to hand the lock to the next queued writer
   (waiting readers are still admitted). Parked writers then starve —
   exactly the class of omitted-wakeup bug the schedule explorer exists
   to catch. Never set outside the harness. *)
let mutant_skip_writer_handoff_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

(* Domain-local so concurrent schedcheck shards cannot disturb each
   other's mutants. *)
let mutant_skip_writer_handoff () =
  Domain.DLS.get mutant_skip_writer_handoff_key

let set_mutant_skip_writer_handoff v = mutant_skip_writer_handoff () := v

let write_unlock t =
  let f = Engine.fiber () in
  Engine.serialize_on f;
  if not t.writer then failwith "Rwlock_s.write_unlock: no writer";
  if t.writer_cpu <> f.f_cpu then failwith "Rwlock_s.write_unlock: wrong cpu";
  Engine.tick_on f Cost.cache_hit;
  note_writer_release f t;
  t.writer <- false;
  t.writer_cpu <- -1;
  if not (Queue.is_empty t.rwait) then wake_reader_phase t ~now:f.f_time
  else if
    (not (Queue.is_empty t.wwait)) && not !(mutant_skip_writer_handoff ())
  then wake_next_writer t ~now:f.f_time

let downgrade t =
  let f = Engine.fiber () in
  Engine.serialize_on f;
  if not t.writer then failwith "Rwlock_s.downgrade: no writer";
  if t.writer_cpu <> f.f_cpu then failwith "Rwlock_s.downgrade: wrong cpu";
  Engine.tick_on f Cost.cache_hit;
  note_writer_release f t;
  t.writer <- false;
  t.writer_cpu <- -1;
  t.readers <- t.readers + 1;
  if Mm_obs.Trace.on () then
    Engine.obs (Mm_obs.Event.Lock_downgrade { lock = t.id });
  (* Phase-fair: the waiting reader phase joins us. *)
  if not (Queue.is_empty t.rwait) then wake_reader_phase t ~now:f.f_time

(* Upgrade is modelled as release-then-acquire, as in the Linux page-fault
   path (Fig 2 re-validates after upgrading). *)
let upgrade t =
  read_unlock t;
  write_lock t

let readers t = t.readers
let writer_active t = t.writer
let revocations t = t.revocations
let id t = t.id
