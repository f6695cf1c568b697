(** Phase-fair readers-writer lock model with optional BRAVO reader bias
    (the paper's BRAVO-pfqlock, used by CortenMM_rw). *)

type t

val make : ?bravo:bool -> ?id:int -> ?name:string -> unit -> t
(** [name] labels the lock in contention reports and traces; unnamed locks
    appear as [rwlock#<id>]. [id] is one reserved earlier with
    {!Mm_obs.Contention.fresh_id} (a fresh one by default). *)

val set_name : t -> string -> unit
val id : t -> int

val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

val downgrade : t -> unit
(** Writer becomes a reader without releasing (used by Linux munmap). *)

val upgrade : t -> unit
(** Release read side, then acquire write side (not atomic; callers must
    re-validate, as the Linux page-fault path does). *)

(** The same transitions on the calling fiber, which the caller looked
    up once ({!Engine.fiber}); each form above is its [_on] form applied
    to [Engine.fiber ()]. *)

val read_lock_on : Engine.fiber -> t -> unit
val read_unlock_on : Engine.fiber -> t -> unit
val write_lock_on : Engine.fiber -> t -> unit
val write_unlock_on : Engine.fiber -> t -> unit
val downgrade_on : Engine.fiber -> t -> unit
val upgrade_on : Engine.fiber -> t -> unit

val readers : t -> int
val writer_active : t -> bool
val revocations : t -> int

val set_mutant_skip_writer_handoff : bool -> unit
(** Fault injection for the schedcheck harness (global, default off): a
    buggy [write_unlock] that forgets to hand the lock to the next queued
    writer, starving it. Only the schedule explorer should ever set this;
    it must reset it before returning. *)
