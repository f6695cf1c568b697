(* The one event taxonomy of the simulator: what the trace records and
   what the runtime checker ([Mm_verif.Live]) consumes.

   Every event is stamped with the *virtual* time of the emitting vCPU and
   a per-domain emission sequence number. Because the simulator is
   deterministic (fibers are replayed in virtual-time order with sequence
   tie-breaks), the full event stream of a run is a pure function of the
   workload and its seeds: two identical runs yield byte-identical
   streams. Emitting an event never advances virtual time, so observing a
   run is invisible to the simulation itself. An event emitted outside a
   simulation fiber (world set-up) carries cpu -1 and time 0.

   Spans (lock waits, cursor transactions, page faults) are emitted at
   their *completion*, carrying their duration — the exporter reconstructs
   the interval as [time - span, time]. This avoids begin/end pairing
   state in the hot paths. *)

(* The constructors sit in a submodule so that [Mm_sim.Monitor] can
   re-export them by name. *)
module Kinds = struct
  type lock_kind = Mutex | Rw_read | Rw_write

  type payload =
    (* Lock protocol events. [lock] is the registry id ({!Contention}).
       An acquire or release is also the checker's view of who holds the
       lock: the holder is the stamp's cpu. *)
    | Lock_acquire of { lock : int; kind : lock_kind; wait : int }
    | Lock_release of { lock : int; kind : lock_kind; held : int }
    | Lock_contend of { lock : int; kind : lock_kind }
    | Lock_downgrade of { lock : int }
        (* The writer that just released [lock] (Rw_write) stays inside
           as a reader. *)
    (* RCU: read-side sections, deferred frees, grace-period completion. *)
    | Rcu_enter
    | Rcu_exit
    | Rcu_retire of { cb : int; waiting : bool array }
        (* Callback [cb] was queued; [waiting.(c)]: cpu [c] was inside a
           read-side section, so the grace period must wait for it. *)
    | Rcu_fire of { cb : int }
    | Rcu_defer of { pending : int } (* after the retire, and any fire *)
    | Rcu_gp of { callbacks : int }
    (* TLB maintenance. *)
    | Tlb_shootdown of { vpns : int; targets : int; ipis : int }
    | Tlb_latr_drain of { entries : int }
    (* Page-table structure changes. *)
    | Pt_split of { vaddr : int; level : int }
    | Pt_free of { level : int; pages : int }
    (* Transactional interface. A transaction's checked lifetime runs
       from its Cursor_lock to its Txn_committed, which is announced at
       commit entry, before the unlocks; Cursor_commit closes the commit. *)
    | Cursor_lock of { asp : int; lo : int; hi : int; locked : int; span : int }
    | Txn_committed of { asp : int; lo : int; hi : int }
    | Cursor_commit of { lo : int; hi : int; flushed : int }
    | Stale_retry (* the adv protocol's retry loop fired (Fig 6 L10-13) *)
    (* Fault path. *)
    | Page_fault of { vaddr : int; write : bool; span : int }
    (* Physical frames. *)
    | Frame_allocated of { pfn : int; pages : int }
    | Frame_deferred of { pfn : int; pages : int }
        (* The frame's free waits behind a pending (batched) TLB
           shootdown; it must not be reallocated until Frame_freed. *)
    | Frame_freed of { pfn : int; pages : int }
        (* A deferred frame was released by its batch flush. *)
    (* Backing objects. [parent] is the shadow-chain parent's id, or -1
       for a chain bottom; [refs] is the count after the change. A
       singly-referenced chain parent collapses into its only shadow
       [into], which survives with the shortened chain. *)
    | Obj_created of { obj : int; parent : int }
    | Obj_ref of { obj : int; refs : int }
    | Obj_unref of { obj : int; refs : int }
    | Obj_collapsed of { obj : int; into : int }
    | Obj_destroyed of { obj : int }
    (* Pages: mlock pins a frame, which reclaim must never take; a dirty
       shared file/shm page must be written back before its cache frame
       is dropped. *)
    | Page_wired of { pfn : int }
    | Page_unwired of { pfn : int }
    | Page_dirtied of { file : int; page : int }
    (* Reclaim: a daemon pass with [free] data frames resident and
       [target] pages to take; a page paged out; a writeback reaching
       the backing store; a cache frame released. *)
    | Reclaim_waken of { free : int; target : int }
    | Reclaim_page of { pfn : int }
    | Reclaim_writeback of { file : int; page : int }
    | Reclaim_drop of { file : int; page : int; pfn : int }
    (* Generic instrumentation. *)
    | Span_begin of { name : string }
    | Span_end of { name : string }
    | Counter of { name : string; value : int }
end

include Kinds

let lock_kind_name = function
  | Mutex -> "mutex"
  | Rw_read -> "rw-read"
  | Rw_write -> "rw-write"

type t = { seq : int; time : int; cpu : int; payload : payload }

let name = function
  | Lock_acquire _ -> "lock-acquire"
  | Lock_release _ -> "lock-release"
  | Lock_contend _ -> "lock-contend"
  | Lock_downgrade _ -> "lock-downgrade"
  | Rcu_enter -> "rcu-enter"
  | Rcu_exit -> "rcu-exit"
  | Rcu_retire _ -> "rcu-retire"
  | Rcu_fire _ -> "rcu-fire"
  | Rcu_defer _ -> "rcu-defer"
  | Rcu_gp _ -> "rcu-gp"
  | Tlb_shootdown _ -> "tlb-shootdown"
  | Tlb_latr_drain _ -> "tlb-latr-drain"
  | Pt_split _ -> "pt-split"
  | Pt_free _ -> "pt-free"
  | Cursor_lock _ -> "cursor-lock"
  | Txn_committed _ -> "txn-committed"
  | Cursor_commit _ -> "cursor-commit"
  | Stale_retry -> "stale-retry"
  | Page_fault _ -> "page-fault"
  | Frame_allocated _ -> "frame-allocated"
  | Frame_deferred _ -> "frame-deferred"
  | Frame_freed _ -> "frame-freed"
  | Obj_created _ -> "obj-created"
  | Obj_ref _ -> "obj-ref"
  | Obj_unref _ -> "obj-unref"
  | Obj_collapsed _ -> "obj-collapsed"
  | Obj_destroyed _ -> "obj-destroyed"
  | Page_wired _ -> "page-wired"
  | Page_unwired _ -> "page-unwired"
  | Page_dirtied _ -> "page-dirtied"
  | Reclaim_waken _ -> "reclaim-waken"
  | Reclaim_page _ -> "reclaim-page"
  | Reclaim_writeback _ -> "reclaim-writeback"
  | Reclaim_drop _ -> "reclaim-drop"
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"
  | Counter _ -> "counter"

let kind_arg kind =
  ("k", match kind with Mutex -> 0 | Rw_read -> 1 | Rw_write -> 2)

(* Cursor_lock's [asp] is left out of its args, which the lock-id golden
   digest in test_obs pins; Rcu_retire shows how many CPUs it waits on. *)
let payload_args = function
  | Lock_acquire { lock; kind; wait } ->
    [ ("lock", lock); ("wait", wait); kind_arg kind ]
  | Lock_release { lock; kind; held } ->
    [ ("lock", lock); ("held", held); kind_arg kind ]
  | Lock_contend { lock; kind } -> [ ("lock", lock); kind_arg kind ]
  | Lock_downgrade { lock } -> [ ("lock", lock) ]
  | Rcu_enter | Rcu_exit | Stale_retry -> []
  | Rcu_retire { cb; waiting } ->
    let n = Array.fold_left (fun n w -> if w then n + 1 else n) 0 waiting in
    [ ("cb", cb); ("waiting", n) ]
  | Rcu_fire { cb } -> [ ("cb", cb) ]
  | Rcu_defer { pending } -> [ ("pending", pending) ]
  | Rcu_gp { callbacks } -> [ ("callbacks", callbacks) ]
  | Tlb_shootdown { vpns; targets; ipis } ->
    [ ("vpns", vpns); ("targets", targets); ("ipis", ipis) ]
  | Tlb_latr_drain { entries } -> [ ("entries", entries) ]
  | Pt_split { vaddr; level } -> [ ("vaddr", vaddr); ("level", level) ]
  | Pt_free { level; pages } -> [ ("level", level); ("pages", pages) ]
  | Cursor_lock { asp = _; lo; hi; locked; span } ->
    [ ("lo", lo); ("hi", hi); ("locked", locked); ("span", span) ]
  | Txn_committed { asp; lo; hi } -> [ ("asp", asp); ("lo", lo); ("hi", hi) ]
  | Cursor_commit { lo; hi; flushed } ->
    [ ("lo", lo); ("hi", hi); ("flushed", flushed) ]
  | Page_fault { vaddr; write; span } ->
    [ ("vaddr", vaddr); ("write", (if write then 1 else 0)); ("span", span) ]
  | Frame_allocated { pfn; pages }
  | Frame_deferred { pfn; pages }
  | Frame_freed { pfn; pages } -> [ ("pfn", pfn); ("pages", pages) ]
  | Obj_created { obj; parent } -> [ ("obj", obj); ("parent", parent) ]
  | Obj_ref { obj; refs } | Obj_unref { obj; refs } ->
    [ ("obj", obj); ("refs", refs) ]
  | Obj_collapsed { obj; into } -> [ ("obj", obj); ("into", into) ]
  | Obj_destroyed { obj } -> [ ("obj", obj) ]
  | Page_wired { pfn } | Page_unwired { pfn } | Reclaim_page { pfn } ->
    [ ("pfn", pfn) ]
  | Page_dirtied { file; page } | Reclaim_writeback { file; page } ->
    [ ("file", file); ("page", page) ]
  | Reclaim_waken { free; target } -> [ ("free", free); ("target", target) ]
  | Reclaim_drop { file; page; pfn } ->
    [ ("file", file); ("page", page); ("pfn", pfn) ]
  | Span_begin _ | Span_end _ -> []
  | Counter { value; _ } -> [ ("value", value) ]

(* The duration carried by a span-at-completion event, if any. *)
let span_of = function
  | Lock_acquire { wait; _ } -> Some wait
  | Lock_release { held; _ } -> Some held
  | Cursor_lock { span; _ } -> Some span
  | Page_fault { span; _ } -> Some span
  | _ -> None

(* Canonical single-line text form — the byte stream the determinism
   guarantee is stated over. *)
let to_string e =
  let args =
    (match e.payload with
    | Span_begin { name } | Span_end { name } | Counter { name; _ } ->
      Printf.sprintf " name=%s" name
    | _ -> "")
    ^ String.concat ""
        (List.map
           (fun (k, v) -> Printf.sprintf " %s=%d" k v)
           (payload_args e.payload))
  in
  Printf.sprintf "%d %d cpu%d %s%s" e.seq e.time e.cpu (name e.payload) args
