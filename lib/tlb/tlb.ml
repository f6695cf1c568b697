(* Per-CPU TLB model and shootdown strategies.

   CortenMM borrows two shootdown optimizations (paper §4.5): parallel
   flushes with early acknowledgement (Amit et al. [25]) and LATR-style
   lazy shootdown on munmap (Kumar et al. [66]), where unmapped pages are
   pushed to per-CPU buffers drained on timer interrupts.

   The model keeps real per-CPU translation tables (vpn -> pfn) so tests
   can detect stale translations, and charges the initiating CPU the cost
   profile of the selected strategy. Linux's baseline uses the synchronous
   broadcast strategy.

   Orthogonal to the strategy, a shootdown *policy* decides WHEN the
   remote work happens (an extension the paper does not have):

   - [Immediate] (default): remote invalidation at the shootdown call,
     exactly the historical behavior — byte-identical simulated outputs.
   - [Batched]: the initiator still flushes its own TLB immediately (it
     just modified the translation), but the remote work is appended to a
     bounded deferral queue and completed in one coalesced round when the
     batch fills ([max_batch] records) or ages out ([window] cycles,
     checked on timer ticks). Callers may attach an [on_flush] callback
     to a shootdown — the hook the core uses to defer frame frees until
     the stale remote translations are gone (async unmap). *)

type strategy = Sync | Early_ack | Latr

type policy = Immediate | Batched of { window : int; max_batch : int }

let policy_to_string = function
  | Immediate -> "immediate"
  | Batched _ -> "batched"

type counters = {
  mutable shootdowns : int;
  mutable ipis : int;
  mutable local_flushes : int;
  mutable latr_published : int;
  mutable latr_drained : int;
  mutable batched : int; (* shootdown records deferred to a batch *)
  mutable batch_flushes : int; (* coalesced rounds performed *)
  mutable worst_stall : int; (* max enqueue-to-flush age, cycles *)
}

(* One deferred shootdown: what [shootdown] would have done remotely. *)
type batch_entry = {
  be_vpns : int list;
  be_remote : int list;
  be_enqueued : int; (* virtual time at enqueue (0 outside a fiber) *)
  be_on_flush : (unit -> unit) option;
}

type t = {
  ncpus : int;
  strategy : strategy;
  entries : (int, int * bool * int) Hashtbl.t array;
      (* per cpu: vpn -> (pfn, writable, protection key). Writability must
         be cached so a write to a read-only (e.g. COW) translation still
         faults; the MPK key is cached because hardware checks PKRU on
         every access, TLB hit or not. *)
  pending : int Queue.t array; (* per cpu: vpns awaiting a lazy flush *)
  counters : counters;
  mutable policy : policy;
  mutable batch : batch_entry list; (* newest first *)
  mutable batch_n : int;
  mutable batch_oldest : int; (* enqueue time of the oldest record *)
}

let create ?(policy = Immediate) ~ncpus ~strategy () =
  {
    ncpus;
    strategy;
    entries = Array.init ncpus (fun _ -> Hashtbl.create 64);
    pending = Array.init ncpus (fun _ -> Queue.create ());
    counters =
      {
        shootdowns = 0;
        ipis = 0;
        local_flushes = 0;
        latr_published = 0;
        latr_drained = 0;
        batched = 0;
        batch_flushes = 0;
        worst_stall = 0;
      };
    policy;
    batch = [];
    batch_n = 0;
    batch_oldest = 0;
  }

let install t ~cpu ~vpn ~pfn ~writable ?(key = 0) () =
  Hashtbl.replace t.entries.(cpu) vpn (pfn, writable, key)

(* A hit requires the cached translation to permit the access; the MPK
   key (if any) is returned for the caller's PKRU check. *)
let lookup t ~cpu ~vpn ~write =
  match Hashtbl.find_opt t.entries.(cpu) vpn with
  | Some (pfn, writable, key) when (not write) || writable -> Some (pfn, key)
  | Some _ | None -> None

(* The invalidation helpers return the initiator's cost instead of
   charging it, so a caller holding the fiber charges without a lookup. *)
let invalidate_local t ~cpu ~vpns =
  t.counters.local_flushes <- t.counters.local_flushes + 1;
  List.iter (fun vpn -> Hashtbl.remove t.entries.(cpu) vpn) vpns;
  Mm_sim.Cost.tlb_flush_local
  + (Mm_sim.Cost.tlb_flush_page * max 0 (List.length vpns - 1))

let flush_local t ~cpu ~vpns =
  Mm_sim.Engine.charge (invalidate_local t ~cpu ~vpns)

(* The remote half of one shootdown under [strategy] (the selected one,
   or [Sync] for a shootdown that must not be lazy); shared by the
   immediate path and the batch flush (which passes the union). *)
let remote_invalidate t ~strategy ~remote ~vpns =
  match (strategy, remote) with
  | _, [] -> 0
  | Sync, remote ->
    (* Send IPIs in parallel, wait for every acknowledgement. *)
    t.counters.ipis <- t.counters.ipis + List.length remote;
    List.iter
      (fun c -> List.iter (fun vpn -> Hashtbl.remove t.entries.(c) vpn) vpns)
      remote;
    (Mm_sim.Cost.ipi_send * List.length remote) + Mm_sim.Cost.ipi_ack_wait
  | Early_ack, remote ->
    (* Remote cores acknowledge before completing the flush; the initiator
       resumes much earlier. Entries are still removed (the window during
       which a remote core may use a stale entry is a correctness argument
       of [25], not modelled). *)
    t.counters.ipis <- t.counters.ipis + List.length remote;
    List.iter
      (fun c -> List.iter (fun vpn -> Hashtbl.remove t.entries.(c) vpn) vpns)
      remote;
    (Mm_sim.Cost.ipi_send * List.length remote)
    + Mm_sim.Cost.ipi_ack_wait_early
  | Latr, remote ->
    (* No IPI at all: publish to the remote CPUs' buffers; each drains on
       its next timer tick. *)
    List.iter
      (fun c ->
        List.iter
          (fun vpn ->
            Queue.push vpn t.pending.(c);
            t.counters.latr_published <- t.counters.latr_published + 1)
          vpns)
      remote;
    Mm_sim.Cost.latr_publish * List.length vpns

(* Complete every deferred record in one coalesced round: the remote CPUs
   of the whole batch are reached once (one IPI fan-out under Sync /
   Early_ack, one publish pass under LATR) instead of once per record.
   Runs the records' [on_flush] callbacks in enqueue order and tracks the
   worst enqueue-to-flush stall. Whoever triggers the flush pays. *)
let flush_batch t =
  if t.batch <> [] then begin
    let records = List.rev t.batch in
    t.batch <- [];
    t.batch_n <- 0;
    (* One round over the union of the records' remote targets. The
       per-record vpn sets are invalidated precisely; the coalescing
       saves the per-record IPI send + ack latency, not the invalidation
       work itself. *)
    let union = Array.make t.ncpus false in
    List.iter
      (fun r -> List.iter (fun c -> union.(c) <- true) r.be_remote)
      records;
    let remote =
      List.filter (fun c -> union.(c)) (List.init t.ncpus Fun.id)
    in
    (match (t.strategy, remote) with
    | _, [] -> ()
    | (Sync | Early_ack), remote ->
      t.counters.ipis <- t.counters.ipis + List.length remote;
      List.iter
        (fun r ->
          List.iter
            (fun c ->
              List.iter (fun vpn -> Hashtbl.remove t.entries.(c) vpn) r.be_vpns)
            r.be_remote)
        records;
      Mm_sim.Engine.charge
        ((Mm_sim.Cost.ipi_send * List.length remote)
        + (if t.strategy = Sync then Mm_sim.Cost.ipi_ack_wait
           else Mm_sim.Cost.ipi_ack_wait_early))
    | Latr, _ ->
      Mm_sim.Engine.charge
        (List.fold_left
           (fun cost r ->
             cost
             + remote_invalidate t ~strategy:t.strategy ~remote:r.be_remote
                 ~vpns:r.be_vpns)
           0 records));
    t.counters.batch_flushes <- t.counters.batch_flushes + 1;
    let now =
      match Mm_sim.Engine.current () with
      | Some f -> f.f_time
      | None -> List.fold_left (fun a r -> max a r.be_enqueued) 0 records
    in
    List.iter
      (fun r ->
        let stall = max 0 (now - r.be_enqueued) in
        if stall > t.counters.worst_stall then t.counters.worst_stall <- stall;
        if Mm_obs.Trace.on () then
          Mm_obs.Metrics.observe
            (Mm_obs.Metrics.histogram "tlb.batch_stall_cycles")
            stall;
        match r.be_on_flush with Some f -> f () | None -> ())
      records;
    if Mm_obs.Trace.on () then
      Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "tlb.batch_flushes")
  end

(* Invalidate [vpns] on every CPU whose bit is set in [targets]; the
   current CPU's flush is always immediate and local (it just modified
   the translation), under either policy. A [sync] shootdown completes
   its remote invalidation before returning under every strategy and
   policy: LATR sends IPIs instead of publishing, and nothing is batched.
   Reclaim needs this — once a page's contents leave memory, no CPU may
   keep a translation to its frame until some later timer tick. *)
let shootdown_on (f : Mm_sim.Engine.fiber) ?on_flush ?(sync = false) t
    ~targets ~vpns =
  let self = f.f_cpu in
  t.counters.shootdowns <- t.counters.shootdowns + 1;
  Mm_sim.Engine.tick_on f (invalidate_local t ~cpu:self ~vpns);
  let remote =
    List.filter
      (fun c -> c <> self && c < t.ncpus && targets.(c))
      (List.init t.ncpus Fun.id)
  in
  let strategy = if sync && t.strategy = Latr then Sync else t.strategy in
  let deferred =
    match t.policy with
    | Batched { max_batch; window = _ } when remote <> [] && not sync ->
      let at = f.f_time in
      if t.batch_n = 0 then t.batch_oldest <- at;
      t.batch <-
        { be_vpns = vpns; be_remote = remote; be_enqueued = at;
          be_on_flush = on_flush }
        :: t.batch;
      t.batch_n <- t.batch_n + 1;
      t.counters.batched <- t.counters.batched + 1;
      Mm_sim.Engine.tick_on f Mm_sim.Cost.batch_enqueue;
      if t.batch_n >= max_batch then flush_batch t;
      true
    | Immediate | Batched _ ->
      (* Under [Batched] with no remote CPU targeted nothing can hold a
         stale translation, so dependent work (deferred frees) runs now
         too. *)
      Mm_sim.Engine.tick_on f (remote_invalidate t ~strategy ~remote ~vpns);
      (match on_flush with Some k -> k () | None -> ());
      false
  in
  if Mm_obs.Trace.on () then begin
    let nremote = List.length remote in
    let ipis =
      match strategy with
      | (Sync | Early_ack) when nremote > 0 && not deferred -> nremote
      | _ -> 0
    in
    Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "tlb.shootdowns");
    Mm_obs.Metrics.observe
      (Mm_obs.Metrics.histogram "tlb.shootdown_fanout")
      nremote;
    Mm_sim.Engine.obs
      (Mm_obs.Event.Tlb_shootdown
         { vpns = List.length vpns; targets = nremote; ipis })
  end

let shootdown ?on_flush ?sync t ~targets ~vpns =
  shootdown_on (Mm_sim.Engine.fiber ()) ?on_flush ?sync t ~targets ~vpns

(* Full shootdown: invalidate the targets' entire TLBs (what a kernel
   does beyond a per-page threshold, and what kswapd does after a batch
   of reference-bit clears). Always synchronous — a full flush cannot be
   deferred page-by-page — so any pending batch is completed first. *)
let shootdown_full t ~targets =
  flush_batch t;
  let f = Mm_sim.Engine.fiber () in
  let self = f.f_cpu in
  t.counters.shootdowns <- t.counters.shootdowns + 1;
  Mm_sim.Engine.tick_on f Mm_sim.Cost.tlb_flush_local;
  Hashtbl.reset t.entries.(self);
  let remote =
    List.filter
      (fun c -> c <> self && c < t.ncpus && targets.(c))
      (List.init t.ncpus Fun.id)
  in
  if remote <> [] then begin
    t.counters.ipis <- t.counters.ipis + List.length remote;
    List.iter (fun c -> Hashtbl.reset t.entries.(c)) remote;
    Mm_sim.Engine.tick_on f
      ((Mm_sim.Cost.ipi_send * List.length remote) + Mm_sim.Cost.ipi_ack_wait)
  end;
  if Mm_obs.Trace.on () then begin
    let nremote = List.length remote in
    Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "tlb.shootdowns");
    Mm_obs.Metrics.observe
      (Mm_obs.Metrics.histogram "tlb.shootdown_fanout")
      nremote;
    (* vpns = 0 encodes a full flush. *)
    Mm_sim.Engine.obs
      (Mm_obs.Event.Tlb_shootdown { vpns = 0; targets = nremote; ipis = nremote })
  end

(* Called by each CPU on its (simulated) timer interrupt / reschedule. *)
let timer_tick t ~cpu =
  let q = t.pending.(cpu) in
  let n = Queue.length q in
  if n > 0 then begin
    Mm_sim.Engine.charge (Mm_sim.Cost.latr_drain_per_entry * n);
    Queue.iter (fun vpn -> Hashtbl.remove t.entries.(cpu) vpn) q;
    Queue.clear q;
    t.counters.latr_drained <- t.counters.latr_drained + n;
    if Mm_obs.Trace.on () then begin
      Mm_obs.Metrics.add (Mm_obs.Metrics.counter "tlb.latr_drained") n;
      Mm_sim.Engine.obs (Mm_obs.Event.Tlb_latr_drain { entries = n })
    end
  end;
  match t.policy with
  | Batched { window; max_batch = _ } when t.batch_n > 0 -> (
    match Mm_sim.Engine.current () with
    | Some f when f.f_time >= t.batch_oldest + window -> flush_batch t
    | _ -> ())
  | _ -> ()

let pending_count t ~cpu = Queue.length t.pending.(cpu)
let counters t = t.counters
let strategy t = t.strategy
let policy t = t.policy
let deferring t = t.policy <> Immediate
let batch_pending t = t.batch_n
let flush_pending t = flush_batch t

(* Switching policies completes any pending batch first (under the old
   accounting), so no deferred work is ever lost. *)
let set_policy t p =
  flush_batch t;
  t.policy <- p
