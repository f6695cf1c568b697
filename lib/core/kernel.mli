(** Shared kernel context: physical memory, the global RCU domain, and
    the anonymous-page reverse map (paper §4.5). *)

type t = {
  phys : Mm_phys.Phys.t;
  isa : Mm_hal.Isa.t;
  ncpus : int;
  rcu : Mm_sim.Rcu_s.t;
  anon_rmap : (int, Pager.Mapper_set.t) Hashtbl.t;
  mutable next_asp_id : int;
  mutable wired_pages : int;
  mutable wired_limit : int;
  pkru_access_deny : int array;
  pkru_write_deny : int array;
}

val create : ?isa:Mm_hal.Isa.t -> ?numa_nodes:int -> ncpus:int -> unit -> t
val fresh_asp_id : t -> int

val set_wired_limit : t -> pages:int -> unit
(** Cap on mlock-wired pages (RLIMIT_MEMLOCK); exceeding it makes
    [Mm.mlock_r] fail with [EPERM]. Default: unlimited. *)

val wired_pages : t -> int

val rmap_add : t -> pfn:int -> asp_id:int -> vaddr:int -> unit
val rmap_remove : t -> pfn:int -> asp_id:int -> vaddr:int -> unit

val rmap_of : t -> pfn:int -> (int * int) list
(** Mappers of an anonymous frame as [(address-space id, vaddr)] pairs.
    Reverse mappings are hints: re-validate through a transaction. *)

val page_size : t -> int
val numa_nodes : t -> int

val node_of_cpu : t -> cpu:int -> int
(** The NUMA node a CPU belongs to (contiguous striping). *)

(** {2 Intel MPK (x86-64 only)} *)

val supports_mpk : t -> bool

val wrpkru :
  t -> cpu:int -> key:int -> deny_access:bool -> deny_write:bool -> unit
(** Set a protection key's denial bits in the CPU's PKRU register — an
    unprivileged register write, no syscall or TLB flush needed. *)

val pkru_denies : t -> cpu:int -> key:int -> write:bool -> bool
