(* Shared kernel context for CortenMM: physical memory, the global RCU
   domain, and the reverse-map table for anonymous pages.

   The reverse mapping (paper §4.5) is "recorded in the page descriptor,
   which points to either the file object (for named pages) or the
   AddrSpace (for anonymous pages)". File pages reach their mappers through
   {!File.mappers}; anonymous pages are tracked here, per pfn, in the
   same shared {!Pager.Mapper_set} container the file mapper tree uses —
   one rmap API for both backing kinds. Reverse mappings are hints: users
   must re-validate through the transactional interface. *)

type t = {
  phys : Mm_phys.Phys.t;
  isa : Mm_hal.Isa.t;
  ncpus : int;
  rcu : Mm_sim.Rcu_s.t;
  anon_rmap : (int, Pager.Mapper_set.t) Hashtbl.t; (* pfn -> mappers *)
  mutable next_asp_id : int;
  mutable wired_pages : int; (* frames pinned by mlock *)
  mutable wired_limit : int; (* RLIMIT_MEMLOCK, in pages *)
  pkru_access_deny : int array; (* per cpu: bitmask of keys denied access *)
  pkru_write_deny : int array; (* per cpu: bitmask of keys denied writes *)
}

let create ?(isa = Mm_hal.Isa.x86_64) ?(numa_nodes = 1) ~ncpus () =
  {
    phys = Mm_phys.Phys.create ~numa_nodes ();
    isa;
    ncpus;
    rcu = Mm_sim.Rcu_s.make ~ncpus;
    anon_rmap = Hashtbl.create 256;
    next_asp_id = 0;
    wired_pages = 0;
    wired_limit = max_int;
    pkru_access_deny = Array.make ncpus 0;
    pkru_write_deny = Array.make ncpus 0;
  }

let fresh_asp_id t =
  t.next_asp_id <- t.next_asp_id + 1;
  t.next_asp_id

let set_wired_limit t ~pages = t.wired_limit <- pages
let wired_pages t = t.wired_pages

let page_size t = Mm_hal.Geometry.page_size t.isa.Mm_hal.Isa.geo

let rmap_add t ~pfn ~asp_id ~vaddr =
  let m =
    { Pager.asp_id; map_vaddr = vaddr; file_offset = 0; len = page_size t }
  in
  match Hashtbl.find_opt t.anon_rmap pfn with
  | Some s -> Pager.Mapper_set.add s m
  | None ->
    let s = Pager.Mapper_set.create () in
    Pager.Mapper_set.add s m;
    Hashtbl.replace t.anon_rmap pfn s

let rmap_remove t ~pfn ~asp_id ~vaddr =
  match Hashtbl.find_opt t.anon_rmap pfn with
  | None -> ()
  | Some s ->
    Pager.Mapper_set.remove s ~asp_id ~map_vaddr:vaddr;
    if Pager.Mapper_set.is_empty s then Hashtbl.remove t.anon_rmap pfn

let rmap_of t ~pfn =
  match Hashtbl.find_opt t.anon_rmap pfn with
  | Some s ->
    List.map
      (fun m -> (m.Pager.asp_id, m.Pager.map_vaddr))
      (Pager.Mapper_set.to_list s)
  | None -> []

let rmap_set t ~pfn = Hashtbl.find_opt t.anon_rmap pfn

let numa_nodes t = Mm_phys.Phys.numa_nodes t.phys

(* CPUs are striped across nodes in contiguous blocks, as on real
   two-socket machines. *)
let node_of_cpu t ~cpu = cpu * numa_nodes t / t.ncpus

(* -- Intel MPK: the per-CPU PKRU register (x86-64 only) -- *)

let supports_mpk t = Mm_hal.Isa.supports_mpk t.isa

(* wrpkru: set a key's access/write denial on the calling CPU. User-level
   and unprivileged, hence cheap (no syscall). *)
let wrpkru t ~cpu ~key ~deny_access ~deny_write =
  if not (supports_mpk t) then invalid_arg "wrpkru: ISA without MPK";
  if key < 1 || key > 15 then invalid_arg "wrpkru: key";
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  let bit = 1 lsl key in
  let set m v = if v then m lor bit else m land lnot bit in
  t.pkru_access_deny.(cpu) <- set t.pkru_access_deny.(cpu) deny_access;
  t.pkru_write_deny.(cpu) <- set t.pkru_write_deny.(cpu) deny_write

let pkru_denies t ~cpu ~key ~write =
  let bit = 1 lsl key in
  t.pkru_access_deny.(cpu) land bit <> 0
  || (write && t.pkru_write_deny.(cpu) land bit <> 0)
