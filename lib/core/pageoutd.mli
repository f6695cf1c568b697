(** The global page-out daemon: reclaims from every registered address
    space (anonymous pages, second-chance clock scan over the hardware
    accessed bits, swapped through the transactional interface) and file
    object (page-cache writeback + drop through the pagers) when the
    caller asks it to: {!pressure} takes a given number of pages, {!age}
    only strips accessed bits. Wired (mlock'd) pages are never taken;
    dirty pages are written back before their frame is dropped; unmaps
    run inside transactions so TLB shootdowns commit before frame
    reuse. *)

type stats = {
  mutable scanned : int;  (** non-COW 4 KiB leaves the clock hand visited *)
  mutable second_chances : int;  (** visited leaves found accessed: spared *)
  mutable swapped : int;  (** anonymous pages swapped out *)
  mutable file_written_back : int;
  mutable file_dropped : int;
  mutable wakeups : int;
}

type t

val create : Kernel.t -> dev:Blockdev.t -> unit -> t
(** A daemon swapping to [dev]. *)

val stats : t -> stats

val register_space : t -> Addr_space.t -> unit
val unregister_space : t -> Addr_space.t -> unit
val register_file : t -> File.t -> unit

val pressure : t -> target_pages:int -> int
(** Force a reclaim of [target_pages] pages across all registered
    backing stores; returns how many were reclaimed (stops early after
    two dry passes). *)

val age : t -> unit
(** One clock pass over every registered space that strips the accessed
    bits of hot pages and takes nothing: afterwards only pages touched
    again count as hot. *)
