(** The unified backing-store surface: anonymous/swap, file and shm
    providers all implement one four-operation pager record (DragonFly
    [pagerops] style), and both reverse mappings (file mapper tree,
    anonymous rmap) share one {!Mapper_set} container. *)

type mapping = {
  asp_id : int;  (** the mapping address space *)
  map_vaddr : int;  (** where in that space the object is mapped *)
  file_offset : int;  (** offset into the backing object (0 for anon) *)
  len : int;  (** bytes mapped *)
}

(** Shared reverse-mapping set, used by {!File} for its mapper tree and
    by {!Kernel} for the anonymous rmap. Enumeration order is
    newest-first (insertion conses), matching the historical
    [File.mappers] list exactly. *)
module Mapper_set : sig
  type t

  val create : unit -> t
  val add : t -> mapping -> unit

  val remove : t -> asp_id:int -> map_vaddr:int -> unit
  (** Drop every record matching the [(asp_id, map_vaddr)] key. *)

  val to_list : t -> mapping list
  val is_empty : t -> bool
end

type ops = {
  name : string;
  get_page : page_index:int -> Mm_phys.Frame.t;
      (** Fault a page in from the backing store. [page_index] is the
          provider's stable key: a page-cache index for file/shm, a swap
          block for the anonymous pager. *)
  put_pages : (int * int) list -> int list;
      (** Page [(key, contents)] pairs out; returns the stable keys the
          pages now live at (fresh swap blocks for the anonymous pager,
          the unchanged indexes for file pagers). *)
  has_page : page_index:int -> bool;
      (** Is the page present in the backing store (cache or swap)? *)
  dealloc : unit -> unit;
      (** Release the provider's backing resources. *)
}

val set_mutant_reclaim_skip_writeback : bool -> unit
(** Arm/disarm the injected reclaim bug ([put_pages] skips the dirty
    writeback) on the calling domain — the differential oracle's
    [--reclaim-mutant] CI gate. *)

val mutant_reclaim_skip_writeback : unit -> bool
