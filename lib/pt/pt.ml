(* The radix page-table engine.

   This is the hardware-level structure every system in the reproduction
   programs: a multi-level radix tree of page-table pages whose entries are
   raw 64-bit words in the current ISA's format, stored unboxed in one
   4 KiB byte page per node as hardware stores them. Every write encodes
   and immediately decodes the stored word into a per-node mirror of
   [Pte.t] values, so the HAL is genuinely on the access path (as in
   CortenMM's Rust implementation) while reads serve the mirror — one
   decode per store instead of one per walk step, with identical results
   because the mirror always holds [decode (encode pte)].

   Each node is backed by a physical frame from {!Mm_phys.Phys}; the
   frame's descriptor carries the per-PT-page lock (built on first use)
   and stale flag the locking protocols use. Access costs are charged to
   the simulated CPU when running inside a simulation fiber: reads pay a
   walk step on the node's cache line (shared, non-serializing), writes
   pay an exclusive line access (serializing) — which is how contention
   on a shared leaf PT page emerges in the benchmarks.

   The ['m] parameter is the per-PTE metadata array CortenMM attaches to
   each PT page (paper §3.3); other systems instantiate it with [unit]. *)

open Mm_hal

(* Raw entry [i] is the little-endian word at byte offset [8 * i]. *)
type raw = Bytes.t

let raw_get (r : raw) idx = Bytes.get_int64_le r (idx * 8)
let raw_set (r : raw) idx w = Bytes.set_int64_le r (idx * 8) w

type 'm node = {
  frame : Mm_phys.Frame.t;
  level : int;
  raw : raw;
  decoded : Pte.t array; (* mirror: decoded.(i) = decode (raw_get raw i) *)
  mutable present : int; (* number of present entries *)
  mutable parent : ('m node * int) option;
  mutable base : int; (* base vaddr of the node's coverage, set at link *)
  mutable meta : 'm option;
  mutable touched : int; (* bitmask of CPUs that installed translations *)
}

type 'm t = {
  phys : Mm_phys.Phys.t;
  isa : Isa.t;
  mutable root : 'm node;
  nodes : (int, 'm node) Hashtbl.t; (* pfn -> node *)
  mutable pt_page_count : int;
  mutable pt_pages_allocated : int;
  mutable pt_pages_freed : int;
}

let charge c = if Mm_sim.Engine.in_fiber () then Mm_sim.Engine.tick c

let read_line (f : Mm_phys.Frame.t) =
  if Mm_sim.Engine.in_fiber () then Mm_sim.Engine.Line.read f.Mm_phys.Frame.line

let write_line (f : Mm_phys.Frame.t) =
  if Mm_sim.Engine.in_fiber () then
    Mm_sim.Engine.Line.write f.Mm_phys.Frame.line

let make_node isa frame ~level =
  let n = Geometry.entries isa.Isa.geo in
  {
    frame;
    level;
    raw = Bytes.make (n * 8) '\000';
    decoded = Array.make n Pte.Absent;
    present = 0;
    parent = None;
    base = 0;
    meta = None;
    touched = 0;
  }

let alloc_node t ~level =
  charge Mm_sim.Cost.pt_page_init;
  let frame = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Pt_page () in
  let node = make_node t.isa frame ~level in
  Hashtbl.replace t.nodes frame.Mm_phys.Frame.pfn node;
  t.pt_page_count <- t.pt_page_count + 1;
  t.pt_pages_allocated <- t.pt_pages_allocated + 1;
  node

let create phys isa =
  let frame = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Pt_page () in
  let root = make_node isa frame ~level:isa.Isa.geo.Geometry.levels in
  let t =
    {
      phys;
      isa;
      root;
      nodes = Hashtbl.create 256;
      pt_page_count = 1;
      pt_pages_allocated = 1;
      pt_pages_freed = 0;
    }
  in
  Hashtbl.replace t.nodes frame.Mm_phys.Frame.pfn root;
  t

let root t = t.root
let isa t = t.isa
let geometry t = t.isa.Isa.geo
let node_of_pfn t pfn = Hashtbl.find_opt t.nodes pfn
let pt_page_count t = t.pt_page_count
let pt_pages_allocated t = t.pt_pages_allocated
let pt_pages_freed t = t.pt_pages_freed

let entries_per_node t = Geometry.entries t.isa.Isa.geo

(* -- Raw entry access -- *)

let get _t node idx =
  charge Mm_sim.Cost.pt_walk_step;
  read_line node.frame;
  node.decoded.(idx)

let set t node idx pte =
  charge Mm_sim.Cost.pte_write;
  write_line node.frame;
  let old = node.decoded.(idx) in
  let raw = Isa.encode t.isa ~level:node.level pte in
  raw_set node.raw idx raw;
  (* Re-decode the stored word rather than caching [pte] itself, so reads
     observe exactly what the raw encoding preserves. *)
  node.decoded.(idx) <- Isa.decode t.isa ~level:node.level raw;
  (match (Pte.is_present old, Pte.is_present node.decoded.(idx)) with
  | false, true -> node.present <- node.present + 1
  | true, false -> node.present <- node.present - 1
  | _ -> ())

(* An atomic read for the lock-free traversal phase of CortenMM_adv: same
   cost as a plain read (RCU readers pay nothing extra), but kept separate
   so call sites document their intent. *)
let get_atomic = get

(* Uncharged read, for whole-node scans that are charged in bulk with
   [charge_node_scan] (streaming a 4 KiB PT page is a linear pass over its
   cache lines, not 512 independent walk steps). *)
let get_uncharged _t node idx = node.decoded.(idx)

let charge_node_scan t =
  charge (entries_per_node t / 8 * Mm_sim.Cost.cache_hit)

let child t node idx =
  match get t node idx with
  | Pte.Table { pfn } -> node_of_pfn t pfn
  | Pte.Absent | Pte.Leaf _ -> None

(* Exactly [get]'s charges without the decode — for walk caches that skip
   a descent but must keep simulated time and line state identical. *)
let charge_walk_step _t node =
  charge Mm_sim.Cost.pt_walk_step;
  read_line node.frame

let entry_coverage t node = Geometry.coverage t.isa.Isa.geo ~level:node.level

(* Record the parent link and the derived base address in one place, so
   [node_base] is a field read instead of a walk to the root. *)
let link_child t parent idx child =
  child.parent <- Some (parent, idx);
  child.base <- parent.base + (idx * entry_coverage t parent)

let ensure_child t node idx =
  match get t node idx with
  | Pte.Table { pfn } -> (
    match node_of_pfn t pfn with
    | Some c -> c
    | None -> failwith "Pt.ensure_child: dangling table entry")
  | Pte.Leaf _ -> invalid_arg "Pt.ensure_child: entry is a huge leaf"
  | Pte.Absent ->
    if node.level <= 1 then invalid_arg "Pt.ensure_child: at leaf level";
    let c = alloc_node t ~level:(node.level - 1) in
    link_child t node idx c;
    set t node idx (Pte.Table { pfn = c.frame.Mm_phys.Frame.pfn });
    c

(* Hardware sets the accessed bit for free during a walk; model that as an
   uncharged in-place update of the raw entry. *)
let set_accessed t node idx =
  match node.decoded.(idx) with
  | Pte.Leaf { pfn; perm; accessed = false; dirty; global } ->
    let raw =
      Isa.encode t.isa ~level:node.level
        (Pte.Leaf { pfn; perm; accessed = true; dirty; global })
    in
    raw_set node.raw idx raw;
    node.decoded.(idx) <- Isa.decode t.isa ~level:node.level raw
  | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ()

(* Detach the child under [idx] without freeing it (CortenMM_adv clears the
   parent entry first and RCU-defers the free, Fig 6 L30). *)
let detach_child t node idx =
  match get t node idx with
  | Pte.Table { pfn } -> (
    match node_of_pfn t pfn with
    | Some c ->
      set t node idx Pte.Absent;
      c.parent <- None;
      c
    | None -> failwith "Pt.detach_child: dangling table entry")
  | Pte.Absent | Pte.Leaf _ -> invalid_arg "Pt.detach_child: not a table entry"

(* Free a node's frame. The node must already be unlinked from its parent.
   Does not touch descendants — callers free subtrees explicitly so that
   protocol code controls ordering (and RCU deferral). *)
let free_node t node =
  (match node.parent with
  | Some _ -> invalid_arg "Pt.free_node: node still linked"
  | None -> ());
  charge Mm_sim.Cost.page_free;
  Hashtbl.remove t.nodes node.frame.Mm_phys.Frame.pfn;
  t.pt_page_count <- t.pt_page_count - 1;
  t.pt_pages_freed <- t.pt_pages_freed + 1;
  Mm_phys.Phys.free t.phys node.frame

(* -- Index and range helpers -- *)

let index t ~level ~vaddr = Geometry.index t.isa.Isa.geo ~level ~vaddr

let node_coverage t node = entry_coverage t node * entries_per_node t

(* Base virtual address of [node]'s coverage, cached at link time. *)
let node_base _t node = node.base

(* Does the child slot [idx] of [node] entirely cover [lo, hi)? *)
let entry_covers t node idx ~lo ~hi =
  let base = node_base t node + (idx * entry_coverage t node) in
  base <= lo && hi <= base + entry_coverage t node

(* Iterate the indices of [node] whose entries intersect [lo, hi), calling
   [f idx entry_lo entry_hi] with the clipped subrange. *)
let iter_range t node ~lo ~hi f =
  let base = node_base t node in
  let per = entry_coverage t node in
  let n = entries_per_node t in
  let first = max 0 ((lo - base) / per) in
  let last = min (n - 1) ((hi - 1 - base) / per) in
  for idx = first to last do
    let e_lo = base + (idx * per) in
    let e_hi = e_lo + per in
    f idx (max lo e_lo) (min hi e_hi)
  done

(* Streaming cost of scanning only the slots of [node] that intersect
   [lo, hi) — narrow-range walks must not be billed for the whole page. *)
let charge_range_scan t node ~lo ~hi =
  let base = node_base t node in
  let per = entry_coverage t node in
  let n = entries_per_node t in
  let first = max 0 ((lo - base) / per) in
  let last = min (n - 1) ((hi - 1 - base) / per) in
  let slots = max 1 (last - first + 1) in
  charge (Mm_util.Align.div_round_up slots 8 * Mm_sim.Cost.cache_hit)

(* Walk from the root to the level-1 node containing [vaddr], creating
   intermediate nodes on demand. *)
let rec walk_create t ?(from = t.root) ~to_level vaddr =
  if from.level = to_level then from
  else
    let idx = index t ~level:from.level ~vaddr in
    let c = ensure_child t from idx in
    walk_create t ~from:c ~to_level vaddr

(* Walk without creating; returns the deepest existing node toward [vaddr]
   at or above [to_level]. *)
let rec walk_opt t ?(from = t.root) ~to_level vaddr =
  if from.level = to_level then from
  else
    let idx = index t ~level:from.level ~vaddr in
    match child t from idx with
    | Some c -> walk_opt t ~from:c ~to_level vaddr
    | None -> from

(* -- Whole-tree traversal (used by fork, verification, accounting) -- *)

let rec iter_subtree t node f =
  f node;
  if node.level > 1 then
    for idx = 0 to entries_per_node t - 1 do
      match node.decoded.(idx) with
      | Pte.Table { pfn } -> (
        match node_of_pfn t pfn with
        | Some c -> iter_subtree t c f
        | None -> failwith "Pt.iter_subtree: dangling table entry")
      | Pte.Absent | Pte.Leaf _ -> ()
    done

let iter_nodes t f = iter_subtree t t.root f

(* Enumerate present leaves under [node] as (vaddr, level, pte). *)
let rec iter_leaves t node f =
  charge_node_scan t;
  let base = node_base t node in
  let per = entry_coverage t node in
  for idx = 0 to entries_per_node t - 1 do
    match node.decoded.(idx) with
    | Pte.Absent -> ()
    | Pte.Leaf _ as pte -> f (base + (idx * per)) node.level pte
    | Pte.Table { pfn } -> (
      match node_of_pfn t pfn with
      | Some c -> iter_leaves t c f
      | None -> failwith "Pt.iter_leaves: dangling table entry")
  done

(* -- Well-formedness (the paper's Fig 12 invariant) -- *)

exception Ill_formed of string

let check_well_formed t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt in
  let seen = Hashtbl.create 64 in
  let rec go node =
    if Hashtbl.mem seen node.frame.Mm_phys.Frame.pfn then
      fail "node %#x reachable twice" node.frame.Mm_phys.Frame.pfn;
    Hashtbl.replace seen node.frame.Mm_phys.Frame.pfn ();
    if node.frame.Mm_phys.Frame.kind <> Mm_phys.Frame.Pt_page then
      fail "node %#x frame is not a PT page" node.frame.Mm_phys.Frame.pfn;
    let present = ref 0 in
    Array.iteri
      (fun idx mirror ->
        let pte = Isa.decode t.isa ~level:node.level (raw_get node.raw idx) in
        if pte <> mirror then
          fail "stale decode mirror (node %#x idx %d)"
            node.frame.Mm_phys.Frame.pfn idx;
        match pte with
        | Pte.Absent -> ()
        | Pte.Leaf _ ->
          incr present;
          if node.level > 3 then
            fail "huge leaf at level %d (node %#x idx %d)" node.level
              node.frame.Mm_phys.Frame.pfn idx
        | Pte.Table { pfn } -> (
          incr present;
          if node.level = 1 then
            fail "table entry at leaf level (node %#x idx %d)"
              node.frame.Mm_phys.Frame.pfn idx;
          match node_of_pfn t pfn with
          | None ->
            fail "entry points to unknown PT page %#x (node %#x idx %d)" pfn
              node.frame.Mm_phys.Frame.pfn idx
          | Some c ->
            (* Child level relation: exactly one below (Fig 12 L22). *)
            if c.level <> node.level - 1 then
              fail "child level %d under level %d" c.level node.level;
            (match c.parent with
            | Some (p, pidx)
              when p == node && pidx = idx ->
              ()
            | _ -> fail "child %#x has wrong parent link" pfn);
            if c.base <> node.base + (idx * entry_coverage t node) then
              fail "child %#x has stale base %#x" pfn c.base;
            go c))
      node.decoded;
    if !present <> node.present then
      fail "present count %d <> actual %d (node %#x)" node.present !present
        node.frame.Mm_phys.Frame.pfn
  in
  go t.root;
  (* Every tracked node must be reachable from the root (no leaks into the
     node table), except nodes detached and pending an RCU free — those are
     removed from the table at free time, so anything left must be
     reachable or explicitly detached. *)
  Hashtbl.iter
    (fun pfn node ->
      if (not (Hashtbl.mem seen pfn)) && node.parent <> None then
        fail "node %#x tracked but unreachable" pfn)
    t.nodes
