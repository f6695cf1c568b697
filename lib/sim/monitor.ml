(* Synchronization-event monitor hook.

   The simulated lock models (Mutex_s, Rwlock_s, Rcu_s) and the address
   space's cursor transactions announce their state transitions here so a
   runtime checker (lib/verif Live, driven by lib/schedcheck) can validate
   mutual-exclusion and grace-period invariants against the live engine
   state. Events are emitted synchronously by the fiber performing the
   transition, after it has resumed — so the emission order is the global
   execution order. Emitting never parks, ticks, or touches the event
   queue, so monitored and unmonitored runs are bit-identical. *)

type event =
  | Mutex_acquired of { lock : int; cpu : int }
  | Mutex_released of { lock : int; cpu : int }
  | Read_acquired of { lock : int; cpu : int }
  | Read_released of { lock : int; cpu : int }
  | Write_acquired of { lock : int; cpu : int }
  | Write_released of { lock : int; cpu : int }
  | Rcu_enter of { cpu : int }
  | Rcu_exit of { cpu : int }
  | Rcu_defer of { cb : int; waiting : bool array }
      (* [waiting.(c)]: cpu [c] was inside a read-side section when the
         callback was deferred; the grace period must wait for it. *)
  | Rcu_fire of { cb : int }
  | Txn_locked of { asp : int; cpu : int; lo : int; hi : int }
  | Txn_committed of { asp : int; cpu : int; lo : int; hi : int }
  | Frame_deferred of { pfn : int; pages : int }
      (* The frame's free was deferred behind a pending (batched) TLB
         shootdown; it must not be reallocated until Frame_freed. *)
  | Frame_freed of { pfn : int; pages : int }
      (* A previously deferred frame was released when its batch flushed. *)
  | Frame_allocated of { pfn : int; pages : int }
      (* Any frame allocation (emitted only while a monitor is
         installed) — lets a checker detect reuse-before-flush. *)
  | Obj_created of { obj : int; parent : int }
      (* A backing object came to life; [parent] is the shadow-chain
         parent's id, or -1 for a chain bottom. *)
  | Obj_ref of { obj : int; refs : int }
      (* Reference count after the increment. *)
  | Obj_unref of { obj : int; refs : int }
      (* Reference count after the decrement (>= 0). *)
  | Obj_collapsed of { obj : int; into : int }
      (* A singly-referenced chain parent merged its pages into its only
         remaining shadow and died; [into] survives with the shortened
         chain. *)
  | Obj_destroyed of { obj : int }
      (* The object's last reference was dropped (refs = 0). *)
  | Page_wired of { pfn : int }
      (* mlock: the frame is pinned; reclaim must never take it. *)
  | Page_unwired of { pfn : int }
  | Page_dirtied of { file : int; page : int }
      (* A shared file/shm page was modified; reclaim must write it back
         before dropping the cache frame. *)
  | Reclaim_waken of { free : int; target : int }
      (* The page-out daemon started a pass: [free] data frames resident,
         [target] pages to reclaim. *)
  | Reclaim_page of { pfn : int }
      (* A resident page was paged out (swapped or dropped) by reclaim. *)
  | Reclaim_writeback of { file : int; page : int }
      (* A dirty page's contents reached the backing store. *)
  | Reclaim_drop of { file : int; page : int; pfn : int }
      (* A page-cache frame was released after (any required) writeback. *)

(* Domain-local: each domain of a parallel driver installs and clears
   its own checker (schedcheck shards seed campaigns across domains,
   each run monitored independently). Within a domain the hook keeps
   its process-global feel — one checker at a time, seen by every
   world that domain runs. *)
let hook_key : (event -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Process-wide count of domains with a hook installed: 0 in every
   unmonitored run, so [on] answers there without the domain-local
   lookup. *)
let installed_hooks = Atomic.make 0

let installed () = Atomic.get installed_hooks

let set f =
  let h = Domain.DLS.get hook_key in
  if !h = None then Atomic.incr installed_hooks;
  h := Some f

let clear () =
  let h = Domain.DLS.get hook_key in
  if !h <> None then Atomic.decr installed_hooks;
  h := None

let on () = Atomic.get installed_hooks > 0 && !(Domain.DLS.get hook_key) <> None

(* Call sites guard with [on ()] so event payloads are never allocated
   when no checker is installed. *)
let emit ev = match !(Domain.DLS.get hook_key) with Some f -> f ev | None -> ()
