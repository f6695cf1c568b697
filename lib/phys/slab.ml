(* Slab allocator for fixed-size kernel objects, following Linux's design
   (the paper §4.5: "The physical memory allocator and kernel heap
   allocator follow Linux's buddy system allocator and slab allocator").

   A cache serves objects of one size. Objects are carved from slabs —
   one or more contiguous frames obtained from the buddy allocator — with
   an embedded free list (free objects store the index of the next free
   object). Slabs move between the lists as they fill: free, partial, full;
   allocation always serves from a partial slab (or makes a new one), and
   freeing a slab's last object returns its frames to the buddy.

   Used for vm_area_structs in the Linux baseline and per-PTE metadata
   arrays in CortenMM, replacing plain byte accounting with a real
   allocator whose frame usage shows up in {!Phys.usage}. *)

type slab = {
  frame : Frame.t; (* head frame of the slab's block *)
  capacity : int;
  next_free : int array; (* embedded free list: -1 terminates *)
  mutable free_head : int; (* -1 when full *)
  mutable in_use : int;
}

type t = {
  phys : Phys.t;
  name : string;
  obj_size : int;
  order : int; (* frames per slab = 2^order *)
  objs_per_slab : int;
  mutable partial : slab list;
  mutable empty_reserve : slab option; (* keep one empty slab cached *)
  by_addr : (int, slab) Hashtbl.t; (* slab base address -> slab *)
  mutable allocated : int;
  mutable slabs : int;
}

(* Object handles are synthetic "kernel addresses": slab base (pfn-derived)
   plus object offset. *)
let page_size = 4096

let create phys ~name ~obj_size =
  if obj_size <= 0 || obj_size > 2 * page_size then
    invalid_arg "Slab.create: object size";
  (* Pick the slab order so a slab holds at least 8 objects. *)
  let order =
    let rec go o =
      if o >= 4 then 4
      else if (page_size lsl o) / obj_size >= 8 then o
      else go (o + 1)
    in
    go 0
  in
  {
    phys;
    name;
    obj_size;
    order;
    objs_per_slab = (page_size lsl order) / obj_size;
    partial = [];
    empty_reserve = None;
    by_addr = Hashtbl.create 16;
    allocated = 0;
    slabs = 0;
  }

let slab_base (s : slab) = s.frame.Frame.pfn * page_size

let new_slab t =
  Mm_sim.Engine.charge Mm_sim.Cost.page_alloc;
  let frame = Phys.alloc t.phys ~kind:Frame.Kernel ~order:t.order () in
  let next_free =
    Array.init t.objs_per_slab (fun i ->
        if i = t.objs_per_slab - 1 then -1 else i + 1)
  in
  let s = { frame; capacity = t.objs_per_slab; next_free; free_head = 0; in_use = 0 } in
  t.slabs <- t.slabs + 1;
  Hashtbl.replace t.by_addr (slab_base s) s;
  s

let alloc t =
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  let s =
    match t.partial with
    | s :: _ -> s
    | [] -> (
      match t.empty_reserve with
      | Some s ->
        t.empty_reserve <- None;
        t.partial <- [ s ];
        s
      | None ->
        let s = new_slab t in
        t.partial <- [ s ];
        s)
  in
  let idx = s.free_head in
  assert (idx >= 0);
  s.free_head <- s.next_free.(idx);
  s.in_use <- s.in_use + 1;
  t.allocated <- t.allocated + 1;
  if s.free_head = -1 then
    (* Slab is now full: drop it from the partial list. *)
    t.partial <- List.filter (fun x -> not (x == s)) t.partial;
  slab_base s + (idx * t.obj_size)

let slab_of t addr =
  let base = addr - (addr mod (page_size lsl t.order)) in
  match Hashtbl.find_opt t.by_addr base with
  | Some s -> s
  | None -> invalid_arg (t.name ^ ": free of an address not from this cache")

let free t addr =
  Mm_sim.Engine.charge Mm_sim.Cost.cache_hit;
  let s = slab_of t addr in
  let off = addr - slab_base s in
  if off mod t.obj_size <> 0 then invalid_arg (t.name ^ ": misaligned free");
  let idx = off / t.obj_size in
  (* Double-free detection: walk the embedded free list. *)
  let rec on_free_list i = i = idx || (i >= 0 && on_free_list s.next_free.(i)) in
  if on_free_list s.free_head then invalid_arg (t.name ^ ": double free");
  let was_full = s.free_head = -1 in
  s.next_free.(idx) <- s.free_head;
  s.free_head <- idx;
  s.in_use <- s.in_use - 1;
  t.allocated <- t.allocated - 1;
  if was_full then t.partial <- s :: t.partial;
  if s.in_use = 0 then begin
    (* Empty: keep one in reserve, return the rest to the buddy. *)
    t.partial <- List.filter (fun x -> not (x == s)) t.partial;
    match t.empty_reserve with
    | None -> t.empty_reserve <- Some s
    | Some _ ->
      Hashtbl.remove t.by_addr (slab_base s);
      t.slabs <- t.slabs - 1;
      Mm_sim.Engine.charge Mm_sim.Cost.page_free;
      Phys.free t.phys s.frame
  end

let allocated t = t.allocated
let slab_count t = t.slabs
let bytes_reserved t = t.slabs * (page_size lsl t.order)
let objs_per_slab t = t.objs_per_slab
