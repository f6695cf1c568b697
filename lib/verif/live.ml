(* Runtime invariant checker over live engine state.

   The model checkers in this library (Rw_model, Adv_model) explore hand
   written abstractions of the two locking protocols; this module checks
   the same safety properties against the *implemented* protocols while
   they run, by subscribing to the event bus ({!Mm_obs.Trace}) that the
   simulated lock models, the cursor layer, the frame allocator, the
   object layer and reclaim emit on:

   - mutual exclusion of each simulated mutex, and release-by-holder;
   - writer exclusion and reader counting of each rwlock (phase-fair
     admission must never let a reader and a writer, or two writers,
     hold the lock at once);
   - the protocols' transaction property (paper P1, checked abstractly
     by Rw_model/Adv_model.check): no two cursor transactions over
     overlapping ranges of the same address space are ever active
     simultaneously;
   - RCU grace periods: a deferred callback must not fire until every
     CPU that was inside a read-side critical section at defer time has
     exited it (tracked with per-CPU quiescence epochs);

   - deferred frame frees (batched TLB shootdown): a frame whose free
     was deferred behind a pending shootdown must not be reallocated
     before that shootdown flushes — a reuse inside the window would be
     reachable through a stale remote TLB entry;

   - reclaim (the page-out daemon): a wired (mlock'd) page must never be
     reclaimed, a page must not be reclaimed twice without an
     intervening reallocation, a reclaimed frame must not still be
     pending behind an unflushed shootdown, and a dirty file/shm page
     must reach the backing store (writeback) before its cache frame is
     dropped.

   Violations are *sticky* — recorded, never raised — so a schedule
   explorer can finish the run, collect every violation, and still
   compare final states. The checker is pure host-side bookkeeping: it
   never touches virtual time, so checked runs remain bit-identical to
   unchecked ones. *)

type txn = { t_asp : int; t_cpu : int; t_lo : int; t_hi : int }

type rw_state = { mutable w_cpu : int (* -1: none *); mutable n_readers : int }

(* Mirror of one backing object's lifecycle, rebuilt purely from Obj_*
   events: reference-count transitions must match what the events claim,
   dead objects must stay dead, and shadow chains must stay shallow. *)
type obj_state = {
  o_parent : int; (* -1: chain bottom *)
  o_depth : int;
  mutable o_refs : int;
  mutable o_dead : bool;
}

(* Shadow chains grow one hop per live fork generation; anything deeper
   means collapse never fires (a leak the refcount alone cannot see). *)
let max_chain_depth = 64

type t = {
  ncpus : int;
  mutexes : (int, int) Hashtbl.t; (* lock id -> holder cpu *)
  rwlocks : (int, rw_state) Hashtbl.t;
  rcu_epoch : int array; (* per-CPU count of read-section exits *)
  rcu_in_rs : bool array;
  rcu_defers : (int, (int * int) list) Hashtbl.t;
      (* cb id -> [(cpu, epoch at defer)] still required to advance *)
  pending_frames : (int, int) Hashtbl.t;
      (* pfn -> pages: frames deferred behind an unflushed shootdown *)
  objs : (int, obj_state) Hashtbl.t; (* backing-object id -> mirror *)
  wired : (int, unit) Hashtbl.t; (* pfns pinned by mlock *)
  reclaimed : (int, unit) Hashtbl.t;
      (* pfns paged out and not reallocated since *)
  dirty_pages : (int * int, unit) Hashtbl.t;
      (* (file id, page index) modified and not yet written back *)
  mutable txns : txn list;
  mutable violations : string list; (* newest first *)
  mutable events : int;
}

let max_violations = 64

let create ~ncpus =
  {
    ncpus;
    mutexes = Hashtbl.create 64;
    rwlocks = Hashtbl.create 64;
    rcu_epoch = Array.make ncpus 0;
    rcu_in_rs = Array.make ncpus false;
    rcu_defers = Hashtbl.create 64;
    pending_frames = Hashtbl.create 64;
    objs = Hashtbl.create 64;
    wired = Hashtbl.create 64;
    reclaimed = Hashtbl.create 64;
    dirty_pages = Hashtbl.create 64;
    txns = [];
    violations = [];
    events = 0;
  }

let violate t fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length t.violations < max_violations then
        t.violations <- msg :: t.violations)
    fmt

let rw_state t lock =
  match Hashtbl.find_opt t.rwlocks lock with
  | Some s -> s
  | None ->
    let s = { w_cpu = -1; n_readers = 0 } in
    Hashtbl.add t.rwlocks lock s;
    s

let observe t (e : Mm_obs.Event.t) =
  t.events <- t.events + 1;
  let cpu = e.cpu in
  match e.payload with
  | Lock_acquire { lock; kind = Mutex; wait = _ } -> (
    match Hashtbl.find_opt t.mutexes lock with
    | Some holder ->
      violate t "mutex#%d: cpu %d acquired while cpu %d holds it" lock cpu
        holder
    | None -> Hashtbl.replace t.mutexes lock cpu)
  | Lock_release { lock; kind = Mutex; held = _ } -> (
    match Hashtbl.find_opt t.mutexes lock with
    | Some holder when holder = cpu -> Hashtbl.remove t.mutexes lock
    | Some holder ->
      violate t "mutex#%d: released by cpu %d but held by cpu %d" lock cpu
        holder
    | None -> violate t "mutex#%d: released by cpu %d while free" lock cpu)
  | Lock_acquire { lock; kind = Rw_read; wait = _ } | Lock_downgrade { lock } ->
    let s = rw_state t lock in
    if s.w_cpu >= 0 then
      violate t "rwlock#%d: cpu %d read-acquired while cpu %d writes" lock cpu
        s.w_cpu;
    s.n_readers <- s.n_readers + 1
  | Lock_release { lock; kind = Rw_read; held = _ } ->
    let s = rw_state t lock in
    if s.n_readers <= 0 then
      violate t "rwlock#%d: cpu %d read-released with no readers" lock cpu
    else s.n_readers <- s.n_readers - 1
  | Lock_acquire { lock; kind = Rw_write; wait = _ } ->
    let s = rw_state t lock in
    if s.w_cpu >= 0 then
      violate t "rwlock#%d: cpu %d write-acquired while cpu %d writes" lock
        cpu s.w_cpu;
    if s.n_readers > 0 then
      violate t "rwlock#%d: cpu %d write-acquired with %d readers inside"
        lock cpu s.n_readers;
    s.w_cpu <- cpu
  | Lock_release { lock; kind = Rw_write; held = _ } ->
    let s = rw_state t lock in
    if s.w_cpu <> cpu then
      violate t "rwlock#%d: write-released by cpu %d but writer is %d" lock
        cpu s.w_cpu;
    s.w_cpu <- -1
  | Rcu_enter -> t.rcu_in_rs.(cpu) <- true
  | Rcu_exit ->
    t.rcu_in_rs.(cpu) <- false;
    t.rcu_epoch.(cpu) <- t.rcu_epoch.(cpu) + 1
  | Rcu_retire { cb; waiting } ->
    let need = ref [] in
    Array.iteri
      (fun cpu w -> if w then need := (cpu, t.rcu_epoch.(cpu)) :: !need)
      waiting;
    Hashtbl.replace t.rcu_defers cb !need
  | Rcu_fire { cb } -> (
    match Hashtbl.find_opt t.rcu_defers cb with
    | None -> () (* synchronize()'s internal callback: no defer event *)
    | Some need ->
      List.iter
        (fun (cpu, epoch_at_defer) ->
          if t.rcu_epoch.(cpu) = epoch_at_defer then
            violate t
              "rcu: callback #%d fired before cpu %d left the read-side \
               section it was in at defer time (grace period violated)"
              cb cpu)
        need;
      Hashtbl.remove t.rcu_defers cb)
  | Cursor_lock { asp; lo; hi; locked = _; span = _ } ->
    List.iter
      (fun o ->
        if o.t_asp = asp && lo < o.t_hi && o.t_lo < hi then
          violate t
            "asp#%d: cpu %d locked [0x%x,0x%x) while cpu %d holds \
             overlapping transaction [0x%x,0x%x)"
            asp cpu lo hi o.t_cpu o.t_lo o.t_hi)
      t.txns;
    t.txns <- { t_asp = asp; t_cpu = cpu; t_lo = lo; t_hi = hi } :: t.txns
  | Txn_committed { asp; lo = _; hi = _ } ->
    let found = ref false in
    t.txns <-
      List.filter
        (fun o ->
          if (not !found) && o.t_asp = asp && o.t_cpu = cpu then begin
            found := true;
            false
          end
          else true)
        t.txns;
    if not !found then
      violate t "asp#%d: cpu %d committed a transaction it never locked" asp
        cpu
  | Frame_deferred { pfn; pages } ->
    if Hashtbl.mem t.pending_frames pfn then
      violate t "frame %#x: deferred twice without an intervening flush" pfn;
    Hashtbl.replace t.pending_frames pfn pages
  | Frame_freed { pfn; pages = _ } ->
    if not (Hashtbl.mem t.pending_frames pfn) then
      violate t "frame %#x: flush-freed but never deferred" pfn
    else Hashtbl.remove t.pending_frames pfn
  | Frame_allocated { pfn; pages } ->
    Hashtbl.iter
      (fun p0 n0 ->
        if pfn < p0 + n0 && p0 < pfn + pages then
          violate t
            "frame %#x: reused (allocated) before its pending shootdown \
             flushed (deferred as %#x+%d)"
            pfn p0 n0)
      t.pending_frames;
    (* A reallocation resets the frame's reclaim/wire history. *)
    for i = 0 to pages - 1 do
      Hashtbl.remove t.reclaimed (pfn + i);
      Hashtbl.remove t.wired (pfn + i)
    done
  | Obj_created { obj; parent } ->
    if Hashtbl.mem t.objs obj then
      violate t "obj#%d: created twice (id reuse within one world)" obj;
    let depth =
      if parent < 0 then 1
      else
        match Hashtbl.find_opt t.objs parent with
        | None ->
          violate t "obj#%d: created over unknown parent obj#%d" obj parent;
          1
        | Some p ->
          if p.o_dead then
            violate t "obj#%d: created over dead parent obj#%d" obj parent;
          p.o_depth + 1
    in
    if depth > max_chain_depth then
      violate t "obj#%d: shadow chain depth %d exceeds %d (collapse leak?)"
        obj depth max_chain_depth;
    Hashtbl.replace t.objs obj
      { o_parent = parent; o_depth = depth; o_refs = 1; o_dead = false }
  | Obj_ref { obj; refs } -> (
    match Hashtbl.find_opt t.objs obj with
    | None -> violate t "obj#%d: referenced but never created" obj
    | Some o ->
      if o.o_dead then violate t "obj#%d: referenced after destruction" obj;
      o.o_refs <- o.o_refs + 1;
      if o.o_refs <> refs then
        violate t "obj#%d: ref reports %d refs, checker tracks %d" obj refs
          o.o_refs)
  | Obj_unref { obj; refs } -> (
    match Hashtbl.find_opt t.objs obj with
    | None -> violate t "obj#%d: unreferenced but never created" obj
    | Some o ->
      if o.o_dead then violate t "obj#%d: unreferenced after destruction" obj;
      o.o_refs <- o.o_refs - 1;
      if o.o_refs < 0 then violate t "obj#%d: refcount went negative" obj;
      if o.o_refs <> refs then
        violate t "obj#%d: unref reports %d refs, checker tracks %d" obj refs
          o.o_refs)
  | Obj_collapsed { obj; into } -> (
    (match Hashtbl.find_opt t.objs into with
    | None -> violate t "obj#%d: collapsed into unknown obj#%d" obj into
    | Some s ->
      if s.o_dead then violate t "obj#%d: collapsed into dead obj#%d" obj into);
    match Hashtbl.find_opt t.objs obj with
    | None -> violate t "obj#%d: collapsed but never created" obj
    | Some o ->
      if o.o_dead then violate t "obj#%d: collapsed after destruction" obj;
      if o.o_refs <> 1 then
        violate t
          "obj#%d: collapsed with %d refs (only a singly-referenced chain \
           parent may collapse)"
          obj o.o_refs;
      (* The survivor absorbs the chain hop; the collapsed object's one
         reference (the survivor's) is gone. *)
      o.o_refs <- 0)
  | Obj_destroyed { obj } -> (
    match Hashtbl.find_opt t.objs obj with
    | None -> violate t "obj#%d: destroyed but never created" obj
    | Some o ->
      if o.o_dead then violate t "obj#%d: destroyed twice" obj;
      if o.o_refs <> 0 then
        violate t "obj#%d: destroyed with %d live refs" obj o.o_refs;
      o.o_dead <- true)
  | Page_wired { pfn } ->
    if Hashtbl.mem t.wired pfn then
      violate t "frame %#x: wired twice without an unwire" pfn;
    Hashtbl.replace t.wired pfn ()
  | Page_unwired { pfn } ->
    if not (Hashtbl.mem t.wired pfn) then
      violate t "frame %#x: unwired but never wired" pfn
    else Hashtbl.remove t.wired pfn
  | Page_dirtied { file; page } -> Hashtbl.replace t.dirty_pages (file, page) ()
  | Reclaim_waken _ -> () (* informational: a daemon pass began *)
  | Reclaim_page { pfn } ->
    if Hashtbl.mem t.wired pfn then
      violate t "frame %#x: reclaimed while wired by mlock" pfn;
    if Hashtbl.mem t.pending_frames pfn then
      violate t
        "frame %#x: reclaimed while its free is still deferred behind an \
         unflushed shootdown"
        pfn;
    if Hashtbl.mem t.reclaimed pfn then
      violate t "frame %#x: reclaimed twice without a reallocation" pfn;
    Hashtbl.replace t.reclaimed pfn ()
  | Reclaim_writeback { file; page } -> Hashtbl.remove t.dirty_pages (file, page)
  | Reclaim_drop { file; page; pfn = _ } ->
    if Hashtbl.mem t.dirty_pages (file, page) then
      violate t
        "file#%d page %d: cache frame dropped while dirty (writeback must \
         precede the drop)"
        file page
  | Lock_contend _ | Rcu_defer _ | Rcu_gp _ | Tlb_shootdown _
  | Tlb_latr_drain _ | Pt_split _ | Pt_free _ | Cursor_commit _ | Stale_retry
  | Page_fault _ | Span_begin _ | Span_end _ | Counter _ ->
    ()

let violations t = List.rev t.violations
let ok t = t.violations = []
let events_seen t = t.events

(* Post-run checks: everything should have been released. *)
let check_quiescent t =
  Hashtbl.iter
    (fun lock cpu -> violate t "mutex#%d: still held by cpu %d at end" lock cpu)
    t.mutexes;
  Hashtbl.iter
    (fun lock s ->
      if s.w_cpu >= 0 then
        violate t "rwlock#%d: writer cpu %d still inside at end" lock s.w_cpu;
      if s.n_readers > 0 then
        violate t "rwlock#%d: %d readers still inside at end" lock s.n_readers)
    t.rwlocks;
  List.iter
    (fun o ->
      violate t "asp#%d: cpu %d transaction [0x%x,0x%x) never committed"
        o.t_asp o.t_cpu o.t_lo o.t_hi)
    t.txns;
  t.txns <- [];
  Hashtbl.iter
    (fun pfn _ ->
      violate t
        "frame %#x: free still deferred at end (its shootdown batch never \
         flushed)"
        pfn)
    t.pending_frames;
  Hashtbl.reset t.pending_frames;
  (* Live backing objects (still-running address spaces) are fine, but a
     zero-ref object that never saw its Obj_destroyed is a lifecycle
     bug. *)
  Hashtbl.iter
    (fun obj (o : obj_state) ->
      if (not o.o_dead) && o.o_refs = 0 then
        violate t "obj#%d: zero refs at end but never destroyed" obj)
    t.objs
