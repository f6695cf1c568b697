(* The first-class backing-store surface: every provider of pages —
   anonymous memory swapping to a block device, regular files with a page
   cache, and shm objects — exposes the same four-operation pager record,
   in the style of DragonFly's [pagerops] (vnode_pager/swap_pager/
   device_pager all answer getpage/putpages/haspage/dealloc).

   [Mm]'s fault handler and the page-out daemon call pagers uniformly
   instead of matching on the mapping kind, so a new backing kind is one
   new [ops] value, not a new arm in every fault/reclaim path.

   This module also hosts the shared reverse-mapping container
   ({!Mapper_set}): both the file-side mapper tree and the kernel's
   anonymous rmap store the same [(address space, vaddr, offset, len)]
   records, giving the page-out daemon one rmap API for both backing
   kinds. *)

type mapping = {
  asp_id : int; (* the mapping address space *)
  map_vaddr : int; (* where in that space the object is mapped *)
  file_offset : int; (* offset into the backing object (0 for anon) *)
  len : int; (* bytes mapped *)
}

(* A small reverse-mapping set. Semantics match the historical
   [File.mappers] list exactly: insertion conses (so enumeration is
   newest-first) and removal filters on the (asp_id, map_vaddr) key —
   byte-identical behaviour for every pre-pager code path. *)
module Mapper_set = struct
  type t = { mutable items : mapping list }

  let create () = { items = [] }
  let add t m = t.items <- m :: t.items

  let remove t ~asp_id ~map_vaddr =
    t.items <-
      List.filter
        (fun m -> not (m.asp_id = asp_id && m.map_vaddr = map_vaddr))
        t.items

  let to_list t = t.items
  let is_empty t = t.items = []
end

(* The pager operations record. [page_index] is the provider's stable
   page key: a page-cache index for file/shm pagers, a swap-device block
   for the anonymous pager.

   [put_pages] pages content tokens out to the backing store and returns
   the stable keys they now live at (for the anonymous pager these are
   freshly allocated swap blocks; file pagers return the indexes
   unchanged). [get_page] faults a page back in — providers charge the
   exact simulated I/O costs the pre-pager fault arms charged, which is
   what keeps default outputs byte-identical across the redesign. *)
type ops = {
  name : string;
  get_page : page_index:int -> Mm_phys.Frame.t;
  put_pages : (int * int) list -> int list; (* (key, contents) -> keys *)
  has_page : page_index:int -> bool;
  dealloc : unit -> unit;
}

(* -- Injected reclaim mutant (CI gate) --

   "put_pages skips the dirty writeback": a paged-out page's content
   token never reaches the backing store, so the page-in after reclaim
   observes stale (or zero) data. Domain-local like the lock mutants so
   parallel oracle tasks arm it independently;
   [Mm_workloads.Runner.reset_world_state] clears it. *)

let mutant_reclaim_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let set_mutant_reclaim_skip_writeback v =
  Domain.DLS.get mutant_reclaim_key := v

let mutant_reclaim_skip_writeback () = !(Domain.DLS.get mutant_reclaim_key)
