(* The radix page-table engine.

   This is the hardware-level structure every system in the reproduction
   programs: a multi-level radix tree of page-table pages whose entries are
   raw 64-bit words in the current ISA's format, stored unboxed as
   hardware stores them. Every write encodes its entry into the stored
   word, so the HAL is genuinely on the access path (as in CortenMM's
   Rust implementation). Reads serve a mirror of [Pte.t] values that is
   a cache filled on read: a store leaves its slot [Absent] over word 0
   and the shared [undecoded] marker over any other word, and the first
   read decodes the word and keeps the result. So every read returns
   [decode (encode pte)], a word is decoded at most once per store, and
   an entry nothing reads is never decoded — NrOS's eagerly backed
   arenas store millions of such leaves.

   Host storage is sparse: a node's 512 entries are eight 64-entry
   chunks, each holding its raw words (a 512-byte buffer) and, from its
   first read on, their mirror. A chunk is allocated by the first
   present store into its stretch; until then the stretch reads the
   shared [empty_chunk], whose raw words are 0 — [Absent] in every PTE
   format. A chunk nothing has read shares [no_mirror], every slot of
   it [undecoded], so a store into it writes only the raw word and the
   occupancy bit, and the chunk's first read builds its own mirror.
   Only the host layout is sparse: every read, store and charge is the
   same as on a dense 4 KiB page.

   Each node is backed by a physical frame from {!Mm_phys.Phys}, whose
   frame table keeps the per-PT-page locks (built on first use) and the
   stale flag the locking protocols use; the node keeps the frame's pfn
   and caches its cache line, which every read and write charges, and
   its locks, which every cursor takes. Access
   costs are charged to the simulated CPU when running inside a
   simulation fiber: reads pay a walk step on the node's cache line
   (shared, non-serializing), writes pay an exclusive line access
   (serializing) — which is how contention on a shared leaf PT page
   emerges in the benchmarks.

   The ['m] parameter is the per-PTE metadata array CortenMM attaches to
   each PT page (paper §3.3); other systems instantiate it with [unit].

   Occupancy: a node's 64-byte occupancy buffer holds one bit per entry,
   set exactly when the entry is present. [write] keeps the bit and
   [present] in step with the stored entry itself, not its decode
   (encoding preserves presence), so scans that skip absent entries
   (fork, teardown, reclaim, the adv lock DFS) visit only the set bits —
   a sparse page costs a few word reads instead of 512 decodes.

   Walk steps: finding the node under a table entry ([child]) and a
   level's slot arithmetic both happen here. Each node remembers the
   last child it resolved, so a walk that goes the same way again reads
   two fields instead of probing the pfn table. The memo is exact
   because a table entry is written only by [set_child], which sets it,
   and every other store into the remembered slot clears it; [set]
   rejects a bare [Table] entry. Slot arithmetic reads per-level shifts
   derived once from the ISA geometry. [walk_create] and [walk_opt] are
   the one descent from the root: each looks the running fiber up once
   and charges one [get] per level it reads, so no caller needs a memo
   of its own over them. *)

open Mm_hal

(* One 64-entry stretch of a node: raw entry [j] is the little-endian
   word at byte offset [8 * j] of [words], and [mirror.(j)] is its
   decode, or [undecoded] until a read decodes it. *)
type chunk = { words : Bytes.t; mutable mirror : Pte.t array }

(* The mirror's marker over a stored word no read has decoded yet. Reads
   test for it physically and never return it: no decode builds this
   block. *)
let undecoded = Pte.Table { pfn = -1 }

let chunk_bits = 6
let chunk_entries = 1 lsl chunk_bits
let slot idx = idx land (chunk_entries - 1)

(* The mirror of every chunk nothing has read: all [undecoded], so a
   read finds nothing cached and decodes. Never written: the first
   decode into a chunk gives it a mirror of its own ([own_mirror]). *)
let no_mirror = Array.make chunk_entries undecoded

let new_chunk () =
  { words = Bytes.make (chunk_entries * 8) '\000'; mirror = no_mirror }

(* Shared by every stretch no present store has reached, and never
   written: the stores that would write it allocate a chunk instead.
   Its mirror holds the decode of its words, [Absent], so no read of it
   decodes. *)
let empty_chunk =
  {
    words = Bytes.make (chunk_entries * 8) '\000';
    mirror = Array.make chunk_entries Pte.Absent;
  }

let raw_get c j = Bytes.get_int64_le c.words (j * 8)
let raw_set c j w = Bytes.set_int64_le c.words (j * 8) w

(* A chunk's mirror, built on its first read as the stores would have
   left it: [Absent] over word 0, so a read of an unstored slot decodes
   nothing, and [undecoded] over any other word. *)
let own_mirror c =
  if c.mirror != no_mirror then c.mirror
  else begin
    let m = Array.make chunk_entries Pte.Absent in
    for j = 0 to chunk_entries - 1 do
      if not (Int64.equal (raw_get c j) 0L) then m.(j) <- undecoded
    done;
    c.mirror <- m;
    m
  end

(* A store of [raw] into slot [j]: the mirror, if the chunk has one,
   forgets the slot's decode. *)
let unmirror c j raw =
  if c.mirror != no_mirror then
    c.mirror.(j) <- (if Int64.equal raw 0L then Pte.Absent else undecoded)

type occ = Bytes.t

type 'm node = {
  frame : Mm_phys.Frame.t;
  line : Mm_sim.Engine.Line.t; (* the frame's, cached *)
  mutable lock : Mm_sim.Mutex_s.t; (* the frame's, cached on first use *)
  mutable rwlock : Mm_sim.Rwlock_s.t; (* likewise *)
  level : int;
  chunks : chunk array; (* [empty_chunk] until a present store lands *)
  occ : occ; (* bit [i] set iff entry [i] is present *)
  mutable present : int; (* number of present entries *)
  mutable parent : ('m node * int) option;
  mutable base : int; (* base vaddr of the node's coverage, set at link *)
  mutable meta : 'm option;
  mutable touched : int; (* bitmask of CPUs that installed translations *)
  mutable kid_slot : int; (* the remembered child's slot, or -1 *)
  mutable kid : 'm node; (* the remembered child; the node itself at -1 *)
}

type 'm t = {
  phys : Mm_phys.Phys.t;
  isa : Isa.t;
  mutable root : 'm node;
  nodes : (int, 'm node) Hashtbl.t; (* pfn -> node *)
  shift : int array; (* [shift.(l - 1)]: the vaddr bit of level [l]'s index *)
  mask : int; (* entries per node - 1 *)
  mutable pt_page_count : int;
}

exception Ill_formed of string

(* One walk step read on fiber [f]: the step cost plus a shared read of
   the node's line. *)
let walk_step_on f node =
  Mm_sim.Engine.tick_on f Mm_sim.Cost.pt_walk_step;
  Mm_sim.Engine.Line.read_on f node.line

(* A node's lock fields until [lock] and [rwlock] first fetch the
   frame's locks from the frame table. *)
let no_lock = Mm_sim.Mutex_s.make ~id:(-1) ()
let no_rwlock = Mm_sim.Rwlock_s.make ~id:(-1) ()

let make_node phys isa frame ~level =
  let n = Geometry.entries isa.Isa.geo in
  let chunks = Array.make ((n + chunk_entries - 1) lsr chunk_bits) empty_chunk
  and occ = Mm_util.Bitset.create n in
  let rec node =
    {
      frame;
      line = Mm_phys.Phys.line phys frame;
      lock = no_lock;
      rwlock = no_rwlock;
      level;
      chunks;
      occ;
      present = 0;
      parent = None;
      base = 0;
      meta = None;
      touched = 0;
      kid_slot = -1;
      kid = node;
    }
  in
  node

let alloc_node t ~level =
  Mm_sim.Engine.charge Mm_sim.Cost.pt_page_init;
  let frame = Mm_phys.Phys.alloc t.phys ~kind:Mm_phys.Frame.Pt_page () in
  let node = make_node t.phys t.isa frame ~level in
  Hashtbl.replace t.nodes (frame :> int) node;
  t.pt_page_count <- t.pt_page_count + 1;
  node

let create phys isa =
  let geo = isa.Isa.geo in
  let frame = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Pt_page () in
  let root = make_node phys isa frame ~level:geo.Geometry.levels in
  let t =
    {
      phys;
      isa;
      root;
      nodes = Hashtbl.create 256;
      shift =
        Array.init geo.Geometry.levels (fun l ->
            Geometry.level_shift geo ~level:(l + 1));
      mask = Geometry.entries geo - 1;
      pt_page_count = 1;
    }
  in
  Hashtbl.replace t.nodes (frame :> int) root;
  t

let root t = t.root

let lock t node =
  let l = node.lock in
  if l != no_lock then l
  else begin
    let l = Mm_phys.Phys.lock t.phys node.frame in
    node.lock <- l;
    l
  end

let rwlock t node =
  let l = node.rwlock in
  if l != no_rwlock then l
  else begin
    let l = Mm_phys.Phys.rwlock t.phys node.frame in
    node.rwlock <- l;
    l
  end
let pt_page_count t = t.pt_page_count

let entries_per_node t = t.mask + 1

(* -- Raw entry access -- *)

(* The first read of a stored word: decode it and keep the decode, in
   a mirror the chunk's first read builds. *)
let decode_slot t node c j =
  let pte = Isa.decode t.isa ~level:node.level (raw_get c j) in
  (own_mirror c).(j) <- pte;
  pte

let read t node idx =
  let c = node.chunks.(idx lsr chunk_bits) in
  let pte = c.mirror.(slot idx) in
  if pte != undecoded then pte else decode_slot t node c (slot idx)

let occupied node idx = Mm_util.Bitset.mem node.occ idx

(* The chunk of [idx] that a store may write: allocated on first use. *)
let own_chunk node idx =
  let k = idx lsr chunk_bits in
  let c = node.chunks.(k) in
  if c != empty_chunk then c
  else begin
    let c = new_chunk () in
    node.chunks.(k) <- c;
    c
  end

let get t node idx =
  (match Mm_sim.Engine.current () with
  | Some f -> walk_step_on f node
  | None -> ());
  read t node idx

(* A store's charges: the write cost plus an exclusive line access, which
   serializes — the fiber may yield to others before the store lands. *)
let charge_store node =
  match Mm_sim.Engine.current () with
  | Some f ->
    Mm_sim.Engine.tick_on f Mm_sim.Cost.pte_write;
    Mm_sim.Engine.Line.write_on f node.line
  | None -> ()

(* Storing word 0 into an unallocated stretch changes nothing: the
   stretch already reads word 0, decoded. A store into the remembered
   child's slot forgets the child. The mirror does not keep [pte]
   itself, so reads observe exactly what the raw encoding preserves. *)
let write t node idx pte =
  if idx = node.kid_slot then begin
    node.kid_slot <- -1;
    node.kid <- node
  end;
  let raw = Isa.encode t.isa ~level:node.level pte in
  if Int64.equal raw 0L && node.chunks.(idx lsr chunk_bits) == empty_chunk
  then ()
  else begin
    let c = own_chunk node idx and j = slot idx in
    raw_set c j raw;
    unmirror c j raw;
    match (occupied node idx, Pte.is_present pte) with
    | false, true ->
      node.present <- node.present + 1;
      Mm_util.Bitset.add node.occ idx
    | true, false ->
      node.present <- node.present - 1;
      Mm_util.Bitset.remove node.occ idx
    | _ -> ()
  end

let store t node idx pte =
  match pte with
  | Pte.Table _ -> invalid_arg "Pt.set: a table entry is written by set_child"
  | Pte.Absent | Pte.Leaf _ -> write t node idx pte

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
let get_uncharged = read

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

let next_present _t node i ~stop = Mm_util.Bitset.next node.occ i ~stop

let next_present_or _t node extra i ~stop =
  Mm_util.Bitset.next_union node.occ extra i ~stop

let iter_present t node f =
  Mm_util.Bitset.iter node.occ ~from:0 ~stop:(entries_per_node t) f

let corrupt_occupancy _t node idx =
  if occupied node idx then Mm_util.Bitset.remove node.occ idx
  else Mm_util.Bitset.add node.occ idx

let corrupt_mirror _t node idx pte =
  (own_mirror (own_chunk node idx)).(slot idx) <- pte

let corrupt_memo _t node idx kid =
  node.kid_slot <- idx;
  node.kid <- kid

(* The node under table entry [idx]: the remembered child when [idx] is
   its slot, else a pfn-table probe whose result is remembered. *)
let child t node idx =
  if idx = node.kid_slot then node.kid
  else
    match read t node idx with
    | Pte.Table { pfn } -> (
      match Hashtbl.find t.nodes pfn with
      | c ->
        node.kid_slot <- idx;
        node.kid <- c;
        c
      | exception Not_found ->
        raise
          (Ill_formed
             (Printf.sprintf "dangling table entry (node %#x idx %d -> %#x)"
                (node.frame :> int) idx pfn)))
    | Pte.Absent | Pte.Leaf _ -> invalid_arg "Pt.child: not a table entry"

let entry_coverage t node = 1 lsl t.shift.(node.level - 1)

(* Link [c] under [parent].[idx] — its parent link and its cached base
   address, so [node_base] is a field read instead of a walk to the
   root — then store the table entry, charged as [set], and remember
   [c] as the child there. *)
let set_child t parent idx c =
  c.parent <- Some (parent, idx);
  c.base <- parent.base + (idx lsl t.shift.(parent.level - 1));
  charge_store parent;
  write t parent idx (Pte.Table { pfn = (c.frame :> int) });
  parent.kid_slot <- idx;
  parent.kid <- c

(* A new PT page linked under [node]'s absent entry [idx]. *)
let add_child t node idx =
  if node.level <= 1 then invalid_arg "Pt.ensure_child: at leaf level";
  let c = alloc_node t ~level:(node.level - 1) in
  set_child t node idx c;
  c

let ensure_child t node idx =
  match get t node idx with
  | Pte.Table _ -> child t node idx
  | Pte.Leaf _ -> invalid_arg "Pt.ensure_child: entry is a huge leaf"
  | Pte.Absent -> add_child t node idx

(* Hardware sets the accessed bit for free during a walk; model that as an
   uncharged in-place update of the raw entry. *)
let set_accessed t node idx =
  match read t node idx with
  | Pte.Leaf { pfn; perm; accessed = false; dirty; global } ->
    let raw =
      Isa.encode t.isa ~level:node.level
        (Pte.Leaf { pfn; perm; accessed = true; dirty; global })
    in
    let c = node.chunks.(idx lsr chunk_bits) and j = slot idx in
    raw_set c j raw;
    unmirror c j raw
  | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ()

(* Linux's ptep_test_and_clear_young, charged as a [set]: the entry is
   re-read after the store's serialization point, so a concurrent
   transaction that changed it while this fiber waited is never undone. *)
let clear_accessed t node idx =
  charge_store node;
  match read t node idx with
  | Pte.Leaf ({ accessed = true; _ } as l) ->
    store t node idx (Pte.Leaf { l with accessed = false })
  | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ()

(* Detach the child under [idx] without freeing it (CortenMM_adv clears the
   parent entry first and RCU-defers the free, Fig 6 L30). *)
let detach_child t node idx =
  match get t node idx with
  | Pte.Table _ ->
    let c = child t node idx in
    set t node idx Pte.Absent;
    c.parent <- None;
    c
  | Pte.Absent | Pte.Leaf _ -> invalid_arg "Pt.detach_child: not a table entry"

(* Free a node's frame. The node must already be unlinked from its parent.
   Does not touch descendants — callers free subtrees explicitly so that
   protocol code controls ordering (and RCU deferral). *)
let free_node t node =
  (match node.parent with
  | Some _ -> invalid_arg "Pt.free_node: node still linked"
  | None -> ());
  Mm_sim.Engine.charge Mm_sim.Cost.page_free;
  Hashtbl.remove t.nodes (node.frame :> int);
  t.pt_page_count <- t.pt_page_count - 1;
  Mm_phys.Phys.free t.phys node.frame

(* -- Index and range helpers -- *)

let index t ~level ~vaddr = (vaddr lsr t.shift.(level - 1)) land t.mask

let node_coverage t node = entry_coverage t node * entries_per_node t

(* Base virtual address of [node]'s coverage, cached at link time. *)
let node_base _t node = node.base

(* The slot of [node] whose entry covers all of [lo, hi), or -1 (also at
   the leaf level, where no entry has a child). *)
let covering_slot t node ~lo ~hi =
  if node.level <= 1 then -1
  else
    let s = t.shift.(node.level - 1) in
    let idx = (lo lsr s) land t.mask in
    let e_lo = node.base + (idx lsl s) in
    if e_lo <= lo && hi <= e_lo + (1 lsl s) then idx else -1

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

(* [get]'s charges, on a fiber the caller looked up once per walk. *)
let charge_step f node =
  match f with Some f -> walk_step_on f node | None -> ()

(* The walks recurse through top-level functions, so a walk allocates
   no closure. A level whose remembered child is in the walk's slot
   reads two fields and not the entry: that slot holds the table entry
   naming the child. *)
let rec create_below t f ~to_level vaddr node =
  if node.level = to_level then node
  else begin
    let idx = index t ~level:node.level ~vaddr in
    charge_step f node;
    let next =
      if idx = node.kid_slot then node.kid
      else
        match read t node idx with
        | Pte.Table _ -> child t node idx
        | Pte.Absent -> add_child t node idx
        | Pte.Leaf _ -> invalid_arg "Pt.walk_create: entry is a huge leaf"
    in
    create_below t f ~to_level vaddr next
  end

(* Walk from the root to the node at [to_level] containing [vaddr],
   creating intermediate nodes on demand: the charges of [ensure_child]
   at each level. *)
let walk_create t ~to_level vaddr =
  create_below t (Mm_sim.Engine.current ()) ~to_level vaddr t.root

let rec opt_below t f ~to_level vaddr node =
  if node.level = to_level then node
  else begin
    let idx = index t ~level:node.level ~vaddr in
    charge_step f node;
    if idx = node.kid_slot then opt_below t f ~to_level vaddr node.kid
    else
      match read t node idx with
      | Pte.Table _ -> opt_below t f ~to_level vaddr (child t node idx)
      | Pte.Absent | Pte.Leaf _ -> node
  end

(* Walk without creating; returns the deepest existing node toward [vaddr]
   at or above [to_level], charging a [get] per level read. *)
let walk_opt t ~to_level vaddr =
  opt_below t (Mm_sim.Engine.current ()) ~to_level vaddr t.root

(* -- Whole-tree traversal (used by fork, verification, accounting) -- *)

let rec iter_subtree t node f =
  f node;
  if node.level > 1 then begin
    let n = entries_per_node t in
    let i = ref (next_present t node 0 ~stop:n) in
    while !i < n do
      (match read t node !i with
      | Pte.Table _ -> iter_subtree t (child t node !i) f
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
    (match read t node !i with
    | Pte.Absent -> ()
    | Pte.Leaf _ as pte -> f (base + (!i * per)) node.level pte
    | Pte.Table _ -> iter_leaves t (child t node !i) f);
    i := next_present t node (!i + 1) ~stop:n
  done

(* -- Well-formedness (the paper's Fig 12 invariant) -- *)

(* Entry [idx] decoded from its raw word, leaving the mirror as it is:
   the check compares the decodes the mirror holds and fills none. *)
let decode_raw t node idx =
  Isa.decode t.isa ~level:node.level
    (raw_get node.chunks.(idx lsr chunk_bits) (slot idx))

let check_well_formed t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt in
  let seen = Hashtbl.create 64 in
  let rec go node =
    if Hashtbl.mem seen (node.frame :> int) then
      fail "node %#x reachable twice" (node.frame :> int);
    Hashtbl.replace seen (node.frame :> int) ();
    if Mm_phys.Phys.kind t.phys node.frame <> Mm_phys.Frame.Pt_page then
      fail "node %#x frame is not a PT page" (node.frame :> int);
    let present = ref 0 in
    for idx = 0 to entries_per_node t - 1 do
      let pte = decode_raw t node idx in
      let cached = node.chunks.(idx lsr chunk_bits).mirror.(slot idx) in
      if cached != undecoded && pte <> cached then
        fail "stale decode mirror (node %#x idx %d)"
          (node.frame :> int) idx;
      if occupied node idx <> Pte.is_present pte then
        fail "stale occupancy bit (node %#x idx %d)"
          (node.frame :> int) idx;
      match pte with
      | Pte.Absent -> ()
      | Pte.Leaf _ ->
        incr present;
        if node.level > 3 then
          fail "huge leaf at level %d (node %#x idx %d)" node.level
            (node.frame :> int) idx
      | Pte.Table { pfn } -> (
        incr present;
        if node.level = 1 then
          fail "table entry at leaf level (node %#x idx %d)"
            (node.frame :> int) idx;
        match Hashtbl.find_opt t.nodes pfn with
        | None ->
          fail "entry points to unknown PT page %#x (node %#x idx %d)" pfn
            (node.frame :> int) idx
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
          go c)
    done;
    if !present <> node.present then
      fail "present count %d <> actual %d (node %#x)" node.present !present
        (node.frame :> int);
    (* The remembered child is the node its slot's table entry names;
       with none remembered, the memo holds the node itself. *)
    let k = node.kid_slot in
    let memo_ok =
      if k = -1 then node.kid == node
      else
        k >= 0 && k <= t.mask
        &&
        match decode_raw t node k with
        | Pte.Table { pfn } -> (
          match Hashtbl.find_opt t.nodes pfn with
          | Some c -> c == node.kid
          | None -> false)
        | Pte.Absent | Pte.Leaf _ -> false
    in
    if not memo_ok then
      fail "stale child memo (node %#x idx %d)" (node.frame :> int) k
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
