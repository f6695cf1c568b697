(** Typed error values for the MM operation surface: backends return
    these as data ([('a, Errno.t) result]) instead of raising, so
    workloads and the differential oracle observe failure outcomes
    deterministically. *)

type t =
  | EINVAL  (** malformed request: empty range, unaligned address *)
  | ENOMEM  (** out of physical frames or virtual address space *)
  | EACCES  (** permission denied at syscall level *)
  | ENOSYS  (** the backend does not implement this operation *)
  | EAGAIN  (** transient resource shortage; retry (mlock under pressure) *)
  | EPERM  (** operation exceeds a hard limit, e.g. the wired-page quota *)
  | SIGSEGV of int  (** access faulted; carries the faulting vaddr *)

exception Error of t

val ok_exn : ('a, t) result -> 'a
(** The [Ok] value, or raise {!Error} with the error — for drivers that
    treat a failed operation as fatal. *)

val to_string : t -> string

val same_class : t -> t -> bool
(** [same_class a b] compares errors by constructor, without payloads:
    [SIGSEGV _] compares equal across backends whose VA allocators place
    regions differently. *)
