(* Physical page frames and their page descriptors.

   CortenMM borrows Linux's design of one descriptor per physical frame
   (paper §4.5, "struct page"). The descriptor carries:
   - the lock protecting the frame when it is a page-table page (the
     per-PT-page lock both protocols acquire), built on first use
     ([lock], [rwlock]) as Linux builds its split PT lock only for
     page-table pages,
   - the stale flag CortenMM_adv sets on unmapped PT pages (Fig 6/7),
   - the map count used by COW ("no need to COW if parent/child has left",
     Fig 8 L29),
   - a cache-line handle so concurrent access to the frame's contents can
     be charged for coherence traffic,
   - an integer "contents" token standing in for the page's data, used by
     tests to verify copy-on-write and swap round-trips. *)

type kind =
  | Free
  | Pt_page (* a page-table page *)
  | Anon (* anonymous user data *)
  | File_page (* page-cache page of a simulated file *)
  | Kernel (* metadata arrays, VMA structs, etc. *)

let kind_to_string = function
  | Free -> "free"
  | Pt_page -> "pt"
  | Anon -> "anon"
  | File_page -> "file"
  | Kernel -> "kernel"

type t = {
  pfn : int;
  mutable kind : kind;
  mutable order : int; (* buddy order this frame was allocated with *)
  lock_id : int; (* reserved id of [rwlock]; [lock] has the next one *)
  mutable pt_lock : Mm_sim.Mutex_s.t option; (* built by [lock] *)
  mutable pt_rwlock : Mm_sim.Rwlock_s.t option; (* built by [rwlock] *)
  line : Mm_sim.Engine.Line.t;
  mutable stale : bool;
  mutable map_count : int;
  mutable wired : bool; (* mlock'd: the page-out daemon must never reclaim *)
  mutable contents : int;
}

let make ~pfn =
  (* Reserve both lock ids now, rwlock first: traces and contention
     reports name unnamed PT-page locks by id, so ids must follow
     descriptor creation order, not which frames became page tables. *)
  let lock_id = Mm_obs.Contention.fresh_id () in
  ignore (Mm_obs.Contention.fresh_id () : int);
  {
    pfn;
    kind = Free;
    order = 0;
    lock_id;
    pt_lock = None;
    pt_rwlock = None;
    line = Mm_sim.Engine.Line.make ();
    stale = false;
    map_count = 0;
    wired = false;
    contents = 0;
  }

(* CortenMM_adv's per-PT-page spin lock. It is kept when the frame is
   freed and reused: its cache-line state is part of simulated time. *)
let lock t =
  match t.pt_lock with
  | Some l -> l
  | None ->
    let l = Mm_sim.Mutex_s.make ~id:(t.lock_id + 1) () in
    t.pt_lock <- Some l;
    l

(* CortenMM_rw's per-PT-page BRAVO-pfqlock. *)
let rwlock t =
  match t.pt_rwlock with
  | Some l -> l
  | None ->
    let l = Mm_sim.Rwlock_s.make ~id:t.lock_id () in
    t.pt_rwlock <- Some l;
    l

let pp fmt t =
  Format.fprintf fmt "frame %#x (%s, maps=%d%s)" t.pfn
    (kind_to_string t.kind) t.map_count
    (if t.stale then ", stale" else "")
