(* NrOS baseline (Bhardwaj et al., OSDI'21).

   NrOS applies node replication (NR) to the whole kernel: every mutating
   MM operation is appended to a shared operation log (one atomic on the
   log tail per append — a global serialization point) and then applied to
   the NUMA-local replica under the replica's coarse lock; replicas catch
   up by replaying the log before serving. As the paper notes, NrOS "does
   not support on-demand paging", so mmap backs the whole region eagerly,
   and the evaluation treats its mmap as CortenMM's mmap-PF.

   We model two NUMA nodes (cpu < ncpus/2 -> replica 0) with a full page
   table per replica. The first replica to apply an mmap allocates the
   physical frames and records them in the log entry so every replica maps
   the same pages; likewise only the first replica to apply an unmap
   releases them, since a lagging replica replays the unmap after the
   frames may have been handed out again. *)

open Mm_hal
module Pt = Mm_pt.Pt
module Va_alloc = Cortenmm.Va_alloc

type fault_outcome = Handled | Sigsegv

type log_op =
  | L_map of { lo : int; len : int; perm : Perm.t; mutable pfns : int array }
  | L_unmap of { lo : int; len : int; mutable applied : bool }

type replica = {
  rep_lock : Mm_sim.Mutex_s.t;
  pt : unit Pt.t;
  mutable applied : int; (* log entries applied so far *)
}

type t = {
  phys : Mm_phys.Phys.t;
  isa : Isa.t;
  ncpus : int;
  nreplicas : int;
  mutable log : log_op array;
  mutable log_len : int;
  log_tail_line : Mm_sim.Engine.Line.t;
  replicas : replica array;
  tlb : Mm_tlb.Tlb.t;
  va : Va_alloc.t;
  cpu_mask : bool array;
}

let va_lo = 0x1000_0000

let create ?(isa = Isa.x86_64) ?(nreplicas = 2) ~ncpus () =
  let phys = Mm_phys.Phys.create () in
  let geo = isa.Isa.geo in
  {
    phys;
    isa;
    ncpus;
    nreplicas = min nreplicas (max 1 ncpus);
    log = [||];
    log_len = 0;
    log_tail_line = Mm_sim.Engine.Line.make ();
    replicas =
      Array.init
        (min nreplicas (max 1 ncpus))
        (fun _ ->
          {
            rep_lock = Mm_sim.Mutex_s.make ~name:"nros.rep_lock" ();
            pt = Pt.create phys isa;
            applied = 0;
          });
    tlb = Mm_tlb.Tlb.create ~ncpus ~strategy:Mm_tlb.Tlb.Sync ();
    va =
      Va_alloc.create ~ncpus ~per_core:false ~va_lo
        ~va_hi:(Geometry.va_limit geo) ~page_size:(Geometry.page_size geo);
    cpu_mask = Array.make ncpus false;
  }

let page_size t = Geometry.page_size t.isa.Isa.geo
let phys t = t.phys
let tlb t = t.tlb

let replica_of t ~cpu = t.replicas.(cpu * t.nreplicas / t.ncpus)

let log_append t op =
  (* The global serialization point of node replication. *)
  (match Mm_sim.Engine.current () with
  | Some f ->
    Mm_sim.Engine.Line.rmw_on f t.log_tail_line;
    Mm_sim.Engine.tick_on f Mm_sim.Cost.cache_hit
  | None -> ());
  let cap = Array.length t.log in
  if t.log_len = cap then begin
    let bigger = Array.make (max 64 (cap * 2)) op in
    Array.blit t.log 0 bigger 0 cap;
    t.log <- bigger
  end;
  t.log.(t.log_len) <- op;
  t.log_len <- t.log_len + 1

(* Apply one log entry to a replica (its lock is held), walking from the
   root for each page. *)
let apply_op t (rep : replica) op =
  let ps = page_size t in
  match op with
  | L_map m ->
    let npages = m.len / ps in
    if Array.length m.pfns = 0 then begin
      (* First applier allocates the shared physical frames. *)
      m.pfns <-
        Array.init npages (fun _ ->
            Mm_sim.Engine.charge
              (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_zero);
            let f = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
            f.Mm_phys.Frame.map_count <- 1;
            f.Mm_phys.Frame.pfn)
    end;
    for i = 0 to npages - 1 do
      let vaddr = m.lo + (i * ps) in
      let node = Pt.walk_create rep.pt ~to_level:1 vaddr in
      Pt.set rep.pt node
        (Pt.index rep.pt ~level:1 ~vaddr)
        (Pte.leaf ~pfn:m.pfns.(i) ~perm:m.perm ())
    done
  | L_unmap u ->
    let first = not u.applied in
    u.applied <- true;
    let npages = u.len / ps in
    for i = 0 to npages - 1 do
      let vaddr = u.lo + (i * ps) in
      let node = Pt.walk_opt rep.pt ~to_level:1 vaddr in
      if node.Pt.level = 1 then begin
        match Pt.get rep.pt node (Pt.index rep.pt ~level:1 ~vaddr) with
        | Pte.Leaf { pfn; _ } ->
          Pt.set rep.pt node (Pt.index rep.pt ~level:1 ~vaddr) Pte.Absent;
          let f = Mm_phys.Phys.frame t.phys pfn in
          if first && f.Mm_phys.Frame.kind = Mm_phys.Frame.Anon then begin
            f.Mm_phys.Frame.map_count <- f.Mm_phys.Frame.map_count - 1;
            if f.Mm_phys.Frame.map_count <= 0 then begin
              Mm_sim.Engine.charge Mm_sim.Cost.page_free;
              Mm_phys.Phys.free t.phys f
            end
          end
        | Pte.Absent | Pte.Table _ -> ()
      end
    done

(* Apply every entry the replica has not seen (its lock is held). *)
let catch_up t rep =
  while rep.applied < t.log_len do
    apply_op t rep t.log.(rep.applied);
    rep.applied <- rep.applied + 1
  done

(* Catch the replica up with the log, then run [f] under its lock. *)
let with_replica t ~cpu f =
  let rep = replica_of t ~cpu in
  Mm_sim.Mutex_s.lock rep.rep_lock;
  catch_up t rep;
  let v = f rep in
  Mm_sim.Mutex_s.unlock rep.rep_lock;
  v

let note_cpu t =
  match Mm_sim.Engine.current () with
  | Some f -> t.cpu_mask.(f.f_cpu) <- true
  | None -> ()

(* NrOS mmap: eager backing (no demand paging). *)
let mmap t ?addr ~len ~perm () =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  let lo =
    match addr with
    | Some a -> a
    | None -> Va_alloc.alloc t.va ~cpu ~len ()
  in
  let op = L_map { lo; len; perm; pfns = [||] } in
  log_append t op;
  with_replica t ~cpu (fun _ -> ());
  lo

let munmap t ~addr ~len =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let ps = page_size t in
  let len = Mm_util.Align.up len ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  log_append t (L_unmap { lo = addr; len; applied = false });
  with_replica t ~cpu (fun _ -> ());
  (* Conservative broadcast shootdown. *)
  (if Mm_sim.Engine.in_fiber () then
     let vpns = List.init (min 64 (len / ps)) (fun i -> (addr / ps) + i) in
     Mm_tlb.Tlb.shootdown t.tlb ~targets:t.cpu_mask ~vpns);
  Va_alloc.free t.va ~cpu ~addr ~len

exception Fault of int

(* No demand paging: a touch that misses consults the local replica
   (catching it up if needed); a page absent there is a hard fault. *)
let touch t ~vaddr ~write =
  note_cpu t;
  let ps = page_size t in
  let vpn = vaddr / ps in
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  match Mm_tlb.Tlb.lookup t.tlb ~cpu ~vpn ~write with
  | Some _ -> ()
  | None ->
    let found =
      with_replica t ~cpu (fun rep ->
          let node = Pt.walk_opt rep.pt ~to_level:1 vaddr in
          if node.Pt.level <> 1 then None
          else
            match Pt.get rep.pt node (Pt.index rep.pt ~level:1 ~vaddr) with
            | Pte.Leaf { pfn; perm; _ } when Perm.allows perm ~write ->
              Some (pfn, perm)
            | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> None)
    in
    (match found with
    | Some (pfn, perm) ->
      Mm_tlb.Tlb.install t.tlb ~cpu ~vpn ~pfn ~writable:perm.Perm.write ()
    | None -> raise (Fault vaddr))

let touch_range t ~addr ~len ~write =
  let ps = page_size t in
  let rec go v =
    if v < addr + len then begin
      touch t ~vaddr:v ~write;
      go (v + ps)
    end
  in
  go addr

let replicated_pt_bytes t =
  Array.fold_left
    (fun acc rep -> acc + (Pt.pt_page_count rep.pt * page_size t))
    0 t.replicas

let log_length t = t.log_len

(* -- fork: eager copy. NrOS does not claim COW; enumerate the parent's
   local replica under its lock (after catching it up, so the snapshot
   reflects the whole log) and give the child fresh frames mapped in
   every one of its own replicas, plus an empty log of its own. *)

let fork t =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  note_cpu t;
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  let child =
    {
      phys = t.phys;
      isa = t.isa;
      ncpus = t.ncpus;
      nreplicas = t.nreplicas;
      log = [||];
      log_len = 0;
      log_tail_line = Mm_sim.Engine.Line.make ();
      replicas =
        Array.init t.nreplicas (fun _ ->
            {
              rep_lock = Mm_sim.Mutex_s.make ~name:"nros.rep_lock" ();
              pt = Pt.create t.phys t.isa;
              applied = 0;
            });
      tlb = Mm_tlb.Tlb.create ~ncpus:t.ncpus ~strategy:Mm_tlb.Tlb.Sync ();
      va = Va_alloc.clone t.va;
      cpu_mask = Array.make t.ncpus false;
    }
  in
  with_replica t ~cpu (fun rep ->
      Pt.iter_leaves rep.pt (Pt.root rep.pt) (fun vaddr _level pte ->
          match pte with
          | Pte.Leaf { pfn; perm; _ } ->
            Mm_sim.Engine.charge
              (Mm_sim.Cost.page_alloc + Mm_sim.Cost.page_copy);
            let src = Mm_phys.Phys.frame t.phys pfn in
            let f = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Anon () in
            f.Mm_phys.Frame.contents <- src.Mm_phys.Frame.contents;
            f.Mm_phys.Frame.map_count <- 1;
            Array.iter
              (fun crep ->
                let node = Pt.walk_create crep.pt ~to_level:1 vaddr in
                Pt.set crep.pt node
                  (Pt.index crep.pt ~level:1 ~vaddr)
                  (Pte.leaf ~pfn:f.Mm_phys.Frame.pfn ~perm ()))
              child.replicas
          | Pte.Absent | Pte.Table _ -> ()));
  child

(* Tear one replica's page table down, releasing anon frames with a
   kind-guarded decrement: [destroy] catches every replica up and tears
   them down back to back, so the first replica to reach a frame frees it
   and the rest see [Free] and skip. *)
let teardown_pt t pt =
  let rec go node =
    Pt.iter_present pt node (fun idx ->
      match Pt.get_uncharged pt node idx with
      | Pte.Table _ ->
        let c = Pt.detach_child pt node idx in
        go c;
        Pt.free_node pt c
      | Pte.Leaf { pfn; _ } ->
        Pt.set pt node idx Pte.Absent;
        let f = Mm_phys.Phys.frame t.phys pfn in
        if f.Mm_phys.Frame.kind = Mm_phys.Frame.Anon then begin
          f.Mm_phys.Frame.map_count <- f.Mm_phys.Frame.map_count - 1;
          if f.Mm_phys.Frame.map_count <= 0 then begin
            Mm_sim.Engine.charge Mm_sim.Cost.page_free;
            Mm_phys.Phys.free t.phys f
          end
        end
      | Pte.Absent -> ())
  in
  go (Pt.root pt)

let destroy t =
  Mm_sim.Engine.charge Mm_sim.Cost.syscall;
  (* Catch every replica up first so each has seen every map/unmap, then
     tear the replicas down in order. *)
  Array.iter
    (fun rep ->
      Mm_sim.Mutex_s.lock rep.rep_lock;
      catch_up t rep;
      teardown_pt t rep.pt;
      Mm_sim.Mutex_s.unlock rep.rep_lock)
    t.replicas;
  t.log_len <- 0

(* Simulated data access for the COW-fork oracle: touch resolves the
   mapping (raising {!Fault} when absent), then the local replica names
   the frame whose contents token we read or write. *)
let with_pfn t ~vaddr f =
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  with_replica t ~cpu (fun rep ->
      let node = Pt.walk_opt rep.pt ~to_level:1 vaddr in
      if node.Pt.level <> 1 then raise (Fault vaddr)
      else
        match Pt.get_uncharged rep.pt node (Pt.index rep.pt ~level:1 ~vaddr) with
        | Pte.Leaf { pfn; _ } -> f (Mm_phys.Phys.frame t.phys pfn)
        | Pte.Absent | Pte.Table _ -> raise (Fault vaddr))

let write_value t ~vaddr ~value =
  touch t ~vaddr ~write:true;
  with_pfn t ~vaddr (fun f -> f.Mm_phys.Frame.contents <- value)

let read_value t ~vaddr =
  touch t ~vaddr ~write:false;
  with_pfn t ~vaddr (fun f -> f.Mm_phys.Frame.contents)

(* Normalized observation of one page for the differential oracle: catch
   the observing CPU's replica up with the log (what any real NrOS read
   must do) and read its page table. NrOS has no demand paging, so a
   page is either absent or resident. *)
let page_state t ~vaddr =
  let cpu = Mm_sim.Engine.cpu_or_zero () in
  with_replica t ~cpu (fun rep ->
      let node = Pt.walk_opt rep.pt ~to_level:1 vaddr in
      if node.Pt.level <> 1 then `Unmapped
      else
        match Pt.get_uncharged rep.pt node (Pt.index rep.pt ~level:1 ~vaddr) with
        | Pte.Leaf { perm; _ } -> `Resident perm.Perm.write
        | Pte.Absent | Pte.Table _ -> `Unmapped)
