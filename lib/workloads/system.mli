(** A uniform façade over the evaluated systems (CortenMM and its
    ablations, Linux, RadixVM, NrOS): a first-class {!Backend.S} module
    packed with its state, plus a named registry the drivers dispatch
    through. *)

type kind = Backend.kind =
  | Corten of Cortenmm.Config.t
  | Linux
  | Radixvm
  | Nros

val kind_name : kind -> string

type caps = Backend.caps = {
  demand_paging : bool;  (** mmap is virtual; frames arrive at fault time *)
  has_mprotect : bool;  (** mprotect implemented (RadixVM/NrOS: no) *)
  has_reclaim : bool;
      (** mlock/munlock + page-out under pressure (CortenMM only) *)
}

type mem_stats = Backend.mem_stats = {
  pt_bytes : int;  (** page tables, all replicas *)
  kernel_bytes : int;  (** VMAs, metadata arrays, radix nodes *)
  resident_bytes : int;  (** user data frames, now *)
  peak_resident_bytes : int;  (** user data frames, high-water mark *)
}

type page_state = Backend.page_state =
  | P_unmapped
  | P_mapped of { writable : bool; resident : bool }

module type BACKEND = Backend.S
(** The backend signature (see {!Backend.S}). *)

type backend = Backend.b

val backend_of_kind : kind -> backend

(** The named-backend registry: the single list the drivers (bench
    [--list], mmrepro subcommands, the differential oracle's default
    backend set) derive the evaluated systems from. *)
module Registry : sig
  type entry = {
    r_name : string;  (** e.g. ["linux"], ["cortenmm-adv"] *)
    r_kind : kind;
    r_backend : backend;
  }

  val all : entry list
  (** In evaluation order: linux, radixvm, nros, cortenmm-rw,
      cortenmm-adv. *)

  val names : string list

  val find : string -> (entry, string) result
  (** [find name] is the entry named [name], or [Error msg] where [msg]
      already includes the valid-name listing — drivers print it
      verbatim. *)
end

type t = private {
  kind : kind;
  name : string;
  ncpus : int;
  page_size : int;
  caps : caps;
  instance : instance;
}

and instance =
  | Instance : (module Backend.S with type t = 's) * 's -> instance

val make : ?isa:Mm_hal.Isa.t -> kind -> ncpus:int -> t
val of_backend : ?isa:Mm_hal.Isa.t -> backend -> ncpus:int -> t
val demand_paging : t -> bool
val has_mprotect : t -> bool
val has_reclaim : t -> bool

(** {2 Typed operations}

    Failures come back as {!Mm_hal.Errno.t} values; drivers that treat
    them as fatal unwrap them with {!Mm_hal.Errno.ok_exn}. *)

val mmap :
  t ->
  ?addr:int ->
  len:int ->
  perm:Mm_hal.Perm.t ->
  unit ->
  (int, Mm_hal.Errno.t) result

val munmap : t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result

val mprotect :
  t -> addr:int -> len:int -> perm:Mm_hal.Perm.t ->
  (unit, Mm_hal.Errno.t) result
(** [Error ENOSYS] when [caps.has_mprotect] is false. *)

val touch : t -> vaddr:int -> write:bool -> (unit, Mm_hal.Errno.t) result

val touch_range :
  t -> addr:int -> len:int -> write:bool -> (unit, Mm_hal.Errno.t) result

val page_state : t -> vaddr:int -> page_state

val fork : t -> (t, Mm_hal.Errno.t) result
(** A child instance duplicating this one's address space (same
    addresses, same logical contents). COW-capable backends share frames
    copy-on-write; the rest copy eagerly. The child shares the backend
    module (and simulated machine) with the parent. *)

val destroy : t -> unit
(** Tear the instance's address space down (process exit). The instance
    must not be used afterwards. *)

val write_value : t -> vaddr:int -> value:int -> (unit, Mm_hal.Errno.t) result
(** A user store of a data token: touches for write, then records
    [value] as the page's contents — the observable the oracle uses to
    prove parent/child COW isolation. *)

val read_value : t -> vaddr:int -> (int, Mm_hal.Errno.t) result
(** A user load of the page's data token. *)

val mlock : t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result
(** Populate and wire the range against reclaim ([Error ENOSYS] when
    {!has_reclaim} is false). *)

val munlock : t -> addr:int -> len:int -> (unit, Mm_hal.Errno.t) result
(** Unwire the range (idempotent; [Error ENOSYS] without reclaim). *)

val pressure : t -> target_pages:int -> (int, Mm_hal.Errno.t) result
(** Wake the instance's page-out daemon to reclaim up to [target_pages]
    pages; returns how many it took ([Error ENOSYS] without reclaim). *)

val timer_tick : t -> unit
val mem_stats : t -> mem_stats

val set_shootdown_policy : t -> Mm_tlb.Tlb.policy -> unit
(** Install a TLB shootdown policy on the instance's (primary) TLB.
    Setting a policy completes any pending batch first, so ending a
    batched run with [set_shootdown_policy t Mm_tlb.Tlb.Immediate]
    drains all deferred work. *)

val tlb_counters : t -> Mm_tlb.Tlb.counters
(** Shootdown accounting (IPIs, batch flushes, worst deferral stall). *)

val warm : t -> cpu:int -> unit
(** One throwaway mapping on the calling CPU's fiber, materializing its
    share's PT chain — application drivers run this in their prep phase
    (real processes run in address spaces warmed by startup). *)

val table2_features : (string * bool list) list
(** The paper's Table 2 claims. *)

val table2_headers : string list

val implemented_features : (string * bool list) list
(** What this reproduction actually implements, printed for honesty. *)
