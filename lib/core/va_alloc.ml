(* Virtual address allocator.

   The paper's first optimization (§4.5): "CortenMM makes the virtual
   address allocator per core, and each core owns a private share of the
   address space", avoiding contention on concurrent allocation. The
   ablation [per_core:false] uses a single shared allocator protected by a
   lock, whose cache line becomes a contention point.

   Each share is a bump allocator with per-size free lists (freed ranges
   are reused exactly, which is how real per-core VA caches behave for the
   fixed-size regions the benchmarks allocate). *)

type share = {
  mutable bump : int;
  limit : int;
  free_by_len : (int, int Queue.t) Hashtbl.t;
}

type t = {
  per_core : bool;
  shares : share array; (* one per core, or a single shared one *)
  global_lock : Mm_sim.Mutex_s.t;
  page_size : int;
}

exception Va_exhausted

let create ~ncpus ~per_core ~va_lo ~va_hi ~page_size =
  if va_hi <= va_lo then invalid_arg "Va_alloc.create: empty range";
  let nshares = if per_core then ncpus else 1 in
  let share_size =
    Mm_util.Align.down ((va_hi - va_lo) / nshares) page_size
  in
  let shares =
    Array.init nshares (fun i ->
        {
          bump = va_lo + (i * share_size);
          limit = va_lo + ((i + 1) * share_size);
          free_by_len = Hashtbl.create 8;
        })
  in
  { per_core; shares; global_lock = Mm_sim.Mutex_s.make ~name:"va_alloc.global" (); page_size }

(* A forked child inherits the parent's allocation state (same regions are
   considered in use). *)
let clone t =
  {
    per_core = t.per_core;
    shares =
      Array.map
        (fun s ->
          {
            bump = s.bump;
            limit = s.limit;
            free_by_len =
              Hashtbl.fold
                (fun len q acc ->
                  Hashtbl.replace acc len (Queue.copy q);
                  acc)
                s.free_by_len (Hashtbl.create 8);
          })
        t.shares;
    global_lock = Mm_sim.Mutex_s.make ~name:"va_alloc.global" ();
    page_size = t.page_size;
  }

let share_for t ~cpu = if t.per_core then t.shares.(cpu) else t.shares.(0)

let alloc_in share ~len ~align =
  (match Hashtbl.find_opt share.free_by_len len with
  | Some q when not (Queue.is_empty q) ->
    let addr = Queue.pop q in
    if Mm_util.Align.is_aligned addr align then Some addr
    else begin
      (* Rare: an unaligned cached range for an aligned request; put it
         back and fall through to the bump path. *)
      Queue.push addr q;
      None
    end
  | _ -> None)
  |> function
  | Some addr -> addr
  | None ->
    let addr = Mm_util.Align.up share.bump align in
    if addr + len > share.limit then raise Va_exhausted;
    share.bump <- addr + len;
    addr

let alloc t ~cpu ?align ~len () =
  let align = match align with Some a -> a | None -> t.page_size in
  if len <= 0 || not (Mm_util.Align.is_aligned len t.page_size) then
    invalid_arg "Va_alloc.alloc: len must be a positive page multiple";
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  if t.per_core then alloc_in (share_for t ~cpu) ~len ~align
  else begin
    (* Shared allocator: serialize on its lock. *)
    Mm_sim.Mutex_s.lock t.global_lock;
    let addr =
      try alloc_in t.shares.(0) ~len ~align
      with e ->
        Mm_sim.Mutex_s.unlock t.global_lock;
        raise e
    in
    Mm_sim.Mutex_s.unlock t.global_lock;
    addr
  end

let free t ~cpu ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  let stash share =
    let q =
      match Hashtbl.find_opt share.free_by_len len with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace share.free_by_len len q;
        q
    in
    Queue.push addr q
  in
  if t.per_core then stash (share_for t ~cpu)
  else begin
    Mm_sim.Mutex_s.lock t.global_lock;
    stash t.shares.(0);
    Mm_sim.Mutex_s.unlock t.global_lock
  end
