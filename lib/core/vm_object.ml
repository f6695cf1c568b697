(* The backing-object layer: an explicit, refcounted ownership graph for
   anonymous memory, in the style of DragonFly/Mach VM objects.

   Each address space tops a *shadow chain*: a list of backing objects
   linked through [parent], youngest first. Resident anonymous pages are
   recorded as per-page slots (vpn -> pfn) in the object that owns them;
   a page lookup walks the chain from the top and the first record wins,
   so a copy installed in a shadow hides the shared original beneath it.

   fork pushes one fresh shadow on each side: the forking space's old top
   object becomes the shared chain parent of both new shadows, and every
   page it holds is now copy-on-write for both spaces. A COW break copies
   the page into the faulting side's top shadow; when only one referent
   of a chain parent remains (sibling exited), the parent *collapses* —
   its pages merge into the surviving shadow and the object dies.

   This graph is the checkable ownership story (the rely-guarantee view:
   which space may write which frame, and why). The x86-level mechanism
   beneath it is unchanged: fork still write-protects private leaves on
   both sides and faults still key off the PTE's COW bit, so all
   simulated costs, TLB traffic and virtual-time behaviour are identical
   to the pre-object-layer code. Object maintenance charges nothing and
   never parks; observed and unobserved runs stay bit-identical
   (transitions announce themselves as [Obj_*] events only while the
   domain has a subscriber). *)

type t = {
  id : int;
  mutable refs : int;
      (* one per address space whose top object this is, plus one per
         live shadow child *)
  mutable parent : t option;
  mutable children : t list; (* live shadows backed by this object *)
  pages : (int, int) Hashtbl.t; (* vpn -> pfn owned by this object *)
  mutable dead : bool;
}

(* Object ids appear in monitor/report text: domain-local, reset per
   parallel task ([Mm_workloads.Runner.reset_world_state]) so they are
   independent of what ran before on the same domain. *)
let next_id_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let next_id () = Domain.DLS.get next_id_key
let reset_ids () = next_id () := 0

let id o = o.id
let refs o = o.refs
let parent o = o.parent
let is_dead o = o.dead
let page_slots o = Hashtbl.length o.pages

let rec depth o = match o.parent with None -> 1 | Some p -> 1 + depth p

let make ~parent =
  let next_id = next_id () in
  incr next_id;
  let o =
    {
      id = !next_id;
      refs = 1;
      parent;
      children = [];
      pages = Hashtbl.create 8;
      dead = false;
    }
  in
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs
      (Mm_obs.Event.Obj_created
         { obj = o.id; parent = Option.fold ~none:(-1) ~some:id parent });
  o

let create_anon () = make ~parent:None

(* A fresh shadow whose misses fall through to [base]; counts as one new
   reference on [base]. *)
let shadow base =
  if base.dead then invalid_arg "Vm_object.shadow: dead object";
  let s = make ~parent:(Some base) in
  base.refs <- base.refs + 1;
  base.children <- s :: base.children;
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs
      (Mm_obs.Event.Obj_ref { obj = base.id; refs = base.refs });
  s

(* Collapse [o] (refs = 1, whose only referent is its single live shadow
   [s]): merge every page [s] does not already shadow, splice [s] onto
   [o]'s parent, and kill [o]. Frames are not touched — their lifetime is
   carried by PTE map counts; only the ownership records move. *)
let collapse_into o s =
  Hashtbl.iter
    (fun vpn pfn ->
      if not (Hashtbl.mem s.pages vpn) then Hashtbl.replace s.pages vpn pfn)
    o.pages;
  Hashtbl.reset o.pages;
  s.parent <- o.parent;
  (match o.parent with
  | None -> ()
  | Some gp ->
    (* [s] inherits [o]'s reference on the grandparent: no count change. *)
    gp.children <- s :: List.filter (fun c -> not (c == o)) gp.children);
  o.parent <- None;
  o.children <- [];
  o.refs <- 0;
  o.dead <- true;
  if Mm_obs.Trace.on () then begin
    Mm_sim.Engine.obs
      (Mm_obs.Event.Obj_collapsed { obj = o.id; into = s.id });
    Mm_sim.Engine.obs (Mm_obs.Event.Obj_destroyed { obj = o.id })
  end

let rec unref o =
  if o.dead then invalid_arg "Vm_object.unref: dead object";
  o.refs <- o.refs - 1;
  if o.refs < 0 then invalid_arg "Vm_object.unref: negative refcount";
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs (Mm_obs.Event.Obj_unref { obj = o.id; refs = o.refs });
  if o.refs = 0 then begin
    let p = o.parent in
    (match p with
    | None -> ()
    | Some gp -> gp.children <- List.filter (fun c -> not (c == o)) gp.children);
    o.parent <- None;
    o.dead <- true;
    Hashtbl.reset o.pages;
    if Mm_obs.Trace.on () then
      Mm_sim.Engine.obs (Mm_obs.Event.Obj_destroyed { obj = o.id });
    match p with None -> () | Some gp -> unref gp
  end
  else if o.refs = 1 then
    (* A chain parent down to its last referent: if that referent is a
       shadow, the chain hop is no longer needed — collapse. (If the one
       referent is an address space holding [o] as its top, [o] has no
       children and nothing happens.) *)
    match o.children with [ s ] -> collapse_into o s | _ -> ()

(* -- Page slots -- *)

let install o ~vpn ~pfn =
  if o.dead then invalid_arg "Vm_object.install: dead object";
  Hashtbl.replace o.pages vpn pfn

(* Chain walk: the youngest record wins. *)
let lookup o ~vpn =
  let rec go o =
    match Hashtbl.find_opt o.pages vpn with
    | Some pfn -> Some (o, pfn)
    | None -> ( match o.parent with None -> None | Some p -> go p)
  in
  go o

(* Drop the youngest record for [vpn], wherever it lives in the chain
   (the frame's last mapping went away). *)
let forget o ~vpn =
  match lookup o ~vpn with
  | None -> ()
  | Some (holder, _) -> Hashtbl.remove holder.pages vpn

(* Claim [vpn] for the chain top: a COW fault resolved in place (the
   frame's other referents are gone), so ownership moves from whichever
   chain object held the page to the faulting space's top object. *)
let promote o ~vpn =
  match lookup o ~vpn with
  | None -> ()
  | Some (holder, pfn) ->
    if not (holder == o) then begin
      Hashtbl.remove holder.pages vpn;
      Hashtbl.replace o.pages vpn pfn
    end

(* fork: push one fresh shadow per side. The old top [base] keeps its
   pages, becomes the shared chain parent of both shadows, and loses the
   address space's direct reference (handed to the shadows). Returns
   (parent's new top, child's new top). *)
let fork_push base =
  let sp = shadow base in
  let sc = shadow base in
  unref base;
  (sp, sc)

(* -- The anonymous/shadow pager provider --

   Anonymous pages have no named backing store; paged out, they live on a
   swap partition. [page_index] is therefore the swap block: [put_pages]
   allocates blocks and returns them (the caller records each in the PTE
   as the swapped location), [get_page] reads a block back into a fresh
   frame and frees it. Costs are exactly the historical swap-out /
   swap-in arms' costs, so routing [Mm] through the pager changes no
   simulated cycle. *)

let pager ~dev ~phys =
  {
    Pager.name = "anon";
    get_page =
      (fun ~page_index ->
        Mm_sim.Engine.charge Mm_sim.Cost.page_alloc;
        let frame = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.Anon () in
        Mm_phys.Phys.set_contents phys frame
          (Blockdev.read_page dev ~block:page_index);
        Blockdev.free_block dev ~block:page_index;
        frame);
    put_pages =
      (fun pages ->
        List.map
          (fun (_, contents) ->
            let block = Blockdev.alloc_block dev in
            (* The injected reclaim mutant "skips the dirty writeback":
               the block is reserved but the content token never reaches
               the device, so the swap-in reads back zero. *)
            let contents =
              if Pager.mutant_reclaim_skip_writeback () then 0 else contents
            in
            Blockdev.write_page dev ~block ~contents;
            block)
          pages);
    has_page = (fun ~page_index -> Blockdev.has_block dev ~block:page_index);
    dealloc = (fun () -> ());
  }
