(** Simulated file objects with a page cache, backing mmaped files and
    shared anonymous memory (shm is a kernel-internal file, §4.5).
    Written-back contents persist in a backing ("disk") store, so pages
    dropped by reclaim refault with the last written-back data. *)

type kind = Regular of string | Shm

type mapper = Pager.mapping = {
  asp_id : int;
  map_vaddr : int;
  file_offset : int;
  len : int;
}

type t

val create : kind:kind -> t
val regular : name:string -> t
val shm : unit -> t

val page_token : t -> page_index:int -> int
(** The deterministic content token of a file page (for verification). *)

val lookup_page : t -> page_index:int -> Mm_phys.Frame.t option
val mark_dirty : t -> page_index:int -> unit

val writeback : t -> Mm_phys.Phys.t -> int
(** Write all dirty pages back to the backing store; returns how many. *)

val drop_page : t -> Mm_phys.Phys.t -> page_index:int -> unit
(** Release one cache frame (reclaim); the caller must have unmapped it
    from every address space first. A later access refaults it. *)

val add_mapper : t -> mapper -> unit
val remove_mapper : t -> asp_id:int -> map_vaddr:int -> unit

val mappers : t -> mapper list
(** The file-side reverse mapping ("the file object contains a tree of
    all AddrSpaces that map the file", §4.5). *)

val cached_pages : t -> int

val cached_page_indexes : t -> int list
(** Resident cache page indexes, sorted (a deterministic reclaim scan
    order). *)

val needs_writeback : t -> Mm_phys.Phys.t -> page_index:int -> bool
(** Would dropping this cache page lose data? True when it is
    dirty-marked or its contents differ from the backing store. *)

val id : t -> int
val reset_ids : unit -> unit
val name : t -> string

val pager : t -> Mm_phys.Phys.t -> Pager.ops
(** The file/shm pager provider over this object's page cache. *)
