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
   each PT page (paper §3.3); other systems instantiate it with [unit].

   Occupancy: after its entry words, a node's raw buffer holds one bit
   per entry, set exactly when the entry is present. [store] keeps the
   bit in step with [present], so scans that skip absent entries (fork,
   teardown, reclaim, the adv lock DFS) visit only the set bits — a
   sparse page costs a few word reads instead of 512 decodes. *)

open Mm_hal

(* Raw entry [i] is the little-endian word at byte offset [8 * i]; the
   occupancy bitset follows the last entry word. *)
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
  occ_off : int; (* byte offset of the occupancy bits in a node's raw *)
  mutable pt_page_count : int;
  mutable pt_pages_freed : int;
}

(* One walk step read on fiber [f]: the step cost plus a shared read of
   the node's line. *)
let walk_step_on f node =
  Mm_sim.Engine.tick_on f Mm_sim.Cost.pt_walk_step;
  Mm_sim.Engine.Line.read_on f node.frame.Mm_phys.Frame.line

let make_node isa frame ~level =
  let n = Geometry.entries isa.Isa.geo in
  {
    frame;
    level;
    raw = Bytes.make ((n * 8) + Mm_util.Bitset.bytes_for n) '\000';
    decoded = Array.make n Pte.Absent;
    present = 0;
    parent = None;
    base = 0;
    meta = None;
    touched = 0;
  }

let alloc_node t ~level =
  Mm_sim.Engine.charge Mm_sim.Cost.pt_page_init;
  let frame = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Pt_page () in
  let node = make_node t.isa frame ~level in
  Hashtbl.replace t.nodes frame.Mm_phys.Frame.pfn node;
  t.pt_page_count <- t.pt_page_count + 1;
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
      occ_off = Geometry.entries isa.Isa.geo * 8;
      pt_page_count = 1;
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
let pt_pages_freed t = t.pt_pages_freed

let entries_per_node t = Geometry.entries t.isa.Isa.geo

(* -- Raw entry access -- *)

let get _t node idx =
  (match Mm_sim.Engine.current () with
  | Some f -> walk_step_on f node
  | None -> ());
  node.decoded.(idx)

(* A store's charges: the write cost plus an exclusive line access, which
   serializes — the fiber may yield to others before the store lands. *)
let charge_store node =
  match Mm_sim.Engine.current () with
  | Some f ->
    Mm_sim.Engine.tick_on f Mm_sim.Cost.pte_write;
    Mm_sim.Engine.Line.write_on f node.frame.Mm_phys.Frame.line
  | None -> ()

let store t node idx pte =
  let old = node.decoded.(idx) in
  let raw = Isa.encode t.isa ~level:node.level pte in
  raw_set node.raw idx raw;
  (* Re-decode the stored word rather than caching [pte] itself, so reads
     observe exactly what the raw encoding preserves. *)
  node.decoded.(idx) <- Isa.decode t.isa ~level:node.level raw;
  match (Pte.is_present old, Pte.is_present node.decoded.(idx)) with
  | false, true ->
    node.present <- node.present + 1;
    Mm_util.Bitset.add node.raw ~off:t.occ_off idx
  | true, false ->
    node.present <- node.present - 1;
    Mm_util.Bitset.remove node.raw ~off:t.occ_off idx
  | _ -> ()

let set t node idx pte =
  charge_store node;
  store t node idx pte

(* An atomic read for the lock-free traversal phase of CortenMM_adv: same
   cost as a plain read (RCU readers pay nothing extra), but kept separate
   so call sites document their intent. *)
let get_atomic = get

(* Uncharged read, for whole-node scans that are charged in bulk with
   [charge_node_scan] (streaming a 4 KiB PT page is a linear pass over its
   cache lines, not 512 independent walk steps). *)
let get_uncharged _t node idx = node.decoded.(idx)

let charge_node_scan t =
  Mm_sim.Engine.charge (entries_per_node t / 8 * Mm_sim.Cost.cache_hit)

(* Exactly the charges of [k] back-to-back [get]s on [node]. The first
   read leaves the fiber's clock at or past the line's [avail] and the
   line owned by nobody else (shared, unowned or ours), and a read does
   not serialize, so each further read costs one walk step plus a cache
   hit ({!Mm_sim.Engine.Line.read_on}). *)
let charge_gets _t node k =
  if k > 0 then
    match Mm_sim.Engine.current () with
    | Some f ->
      walk_step_on f node;
      Mm_sim.Engine.tick_on f
        ((k - 1) * (Mm_sim.Cost.pt_walk_step + Mm_sim.Cost.cache_hit))
    | None -> ()

(* -- Occupancy -- *)

let occupied t node idx = Mm_util.Bitset.mem node.raw ~off:t.occ_off idx

let next_present t node i ~stop =
  Mm_util.Bitset.next node.raw ~off:t.occ_off i ~stop

let next_present_or t node extra i ~stop =
  Mm_util.Bitset.next_union node.raw ~aoff:t.occ_off extra ~boff:0 i ~stop

let iter_present t node f =
  Mm_util.Bitset.iter node.raw ~off:t.occ_off ~from:0
    ~stop:(entries_per_node t) f

let corrupt_occupancy t node idx =
  if occupied t node idx then Mm_util.Bitset.remove node.raw ~off:t.occ_off idx
  else Mm_util.Bitset.add node.raw ~off:t.occ_off idx

let child t node idx =
  match get t node idx with
  | Pte.Table { pfn } -> node_of_pfn t pfn
  | Pte.Absent | Pte.Leaf _ -> None

(* Exactly the charges of [get] on each node in order, without the
   decodes — for walk caches that skip a descent but must keep simulated
   time and line state identical. *)
let charge_walk _t nodes =
  match Mm_sim.Engine.current () with
  | Some f -> List.iter (walk_step_on f) nodes
  | None -> ()

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

(* Linux's ptep_test_and_clear_young, charged as a [set]: the entry is
   re-read after the store's serialization point, so a concurrent
   transaction that changed it while this fiber waited is never undone. *)
let clear_accessed t node idx =
  charge_store node;
  match node.decoded.(idx) with
  | Pte.Leaf ({ accessed = true; _ } as l) ->
    store t node idx (Pte.Leaf { l with accessed = false })
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
  Mm_sim.Engine.charge Mm_sim.Cost.page_free;
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

(* The first and last slots of [node] intersecting [lo, hi). *)
let first_slot t node ~lo =
  let i = (lo - node_base t node) / entry_coverage t node in
  if i > 0 then i else 0

let last_slot t node ~hi =
  let i = (hi - 1 - node_base t node) / entry_coverage t node in
  let n = entries_per_node t in
  if i < n - 1 then i else n - 1

(* Iterate the indices of [node] whose entries intersect [lo, hi), calling
   [f idx entry_lo entry_hi] with the clipped subrange. *)
let iter_range t node ~lo ~hi f =
  let base = node_base t node in
  let per = entry_coverage t node in
  for idx = first_slot t node ~lo to last_slot t node ~hi do
    let e_lo = base + (idx * per) in
    let e_hi = e_lo + per in
    f idx (if lo > e_lo then lo else e_lo) (if hi < e_hi then hi else e_hi)
  done

(* [iter_range] restricted to present entries, reading only the bitmap
   words of the range's slots. *)
let iter_present_range t node ~lo ~hi f =
  let base = node_base t node in
  let per = entry_coverage t node in
  let stop = last_slot t node ~hi + 1 in
  let i = ref (next_present t node (first_slot t node ~lo) ~stop) in
  while !i < stop do
    let e_lo = base + (!i * per) in
    let e_hi = e_lo + per in
    f !i (if lo > e_lo then lo else e_lo) (if hi < e_hi then hi else e_hi);
    i := next_present t node (!i + 1) ~stop
  done

(* Streaming cost of scanning only the slots of [node] that intersect
   [lo, hi) — narrow-range walks must not be billed for the whole page. *)
let charge_range_scan t node ~lo ~hi =
  let first = first_slot t node ~lo and last = last_slot t node ~hi in
  let slots = max 1 (last - first + 1) in
  Mm_sim.Engine.charge
    (Mm_util.Align.div_round_up slots 8 * Mm_sim.Cost.cache_hit)

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

(* -- A remembered descent to a level-1 page --

   Every page under one level-1 page walks through the same upper
   entries. A miss walks for real and remembers the nodes whose entries
   the walk read: the returned node's ancestors, and the node itself
   when the walk stopped above level 1. A hit replays [get]'s charges
   on them ([charge_walk]) and skips the mirror reads and node-table
   probes. *)

type 'm descent = {
  create : bool; (* [walk_create]'s form, else [walk_opt]'s *)
  mutable block : int; (* the remembered walk's 2 MiB block, or -1 *)
  mutable path : 'm node list; (* nodes whose entries it read, root first *)
  mutable found : 'm node; (* the node it returned *)
}

let descent t ~create = { create; block = -1; path = []; found = t.root }

let rec ancestors node acc =
  match node.parent with Some (p, _) -> ancestors p (p :: acc) | None -> acc

let descend t d vaddr =
  let block = vaddr lsr Geometry.level_shift t.isa.Isa.geo ~level:2 in
  if block = d.block then charge_walk t d.path
  else begin
    let node =
      if d.create then walk_create t ~to_level:1 vaddr
      else walk_opt t ~to_level:1 vaddr
    in
    d.block <- block;
    d.path <- ancestors node (if node.level = 1 then [] else [ node ]);
    d.found <- node
  end;
  d.found

(* -- Whole-tree traversal (used by fork, verification, accounting) -- *)

let rec iter_subtree t node f =
  f node;
  if node.level > 1 then begin
    let n = entries_per_node t in
    let i = ref (next_present t node 0 ~stop:n) in
    while !i < n do
      (match node.decoded.(!i) with
      | Pte.Table { pfn } -> (
        match node_of_pfn t pfn with
        | Some c -> iter_subtree t c f
        | None -> failwith "Pt.iter_subtree: dangling table entry")
      | Pte.Absent | Pte.Leaf _ -> ());
      i := next_present t node (!i + 1) ~stop:n
    done
  end

let iter_nodes t f = iter_subtree t t.root f

(* Enumerate present leaves under [node] as (vaddr, level, pte). *)
let rec iter_leaves t node f =
  charge_node_scan t;
  let base = node_base t node in
  let per = entry_coverage t node in
  let n = entries_per_node t in
  let i = ref (next_present t node 0 ~stop:n) in
  while !i < n do
    (match node.decoded.(!i) with
    | Pte.Absent -> ()
    | Pte.Leaf _ as pte -> f (base + (!i * per)) node.level pte
    | Pte.Table { pfn } -> (
      match node_of_pfn t pfn with
      | Some c -> iter_leaves t c f
      | None -> failwith "Pt.iter_leaves: dangling table entry"));
    i := next_present t node (!i + 1) ~stop:n
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
        if occupied t node idx <> Pte.is_present mirror then
          fail "stale occupancy bit (node %#x idx %d)"
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
