(** MCS-style queued spin-lock model: one line RMW per acquire, FIFO
    handoff at a line-transfer latency, waiters spin locally (free). *)

type t

val make : ?id:int -> ?name:string -> unit -> t
(** [name] labels the lock in contention reports and traces; unnamed locks
    appear as [mutex#<id>]. [id] is one reserved earlier with
    {!Mm_obs.Contention.fresh_id} (a fresh one by default). *)

val set_name : t -> string -> unit
val id : t -> int

val lock : t -> unit
val try_lock : t -> bool

val unlock : t -> unit
(** Raises if the lock is not held, or held by a different CPU. *)

(** The same transitions on the calling fiber, which the caller looked
    up once ({!Engine.fiber}); each form above is its [_on] form applied
    to [Engine.fiber ()]. *)

val lock_on : Engine.fiber -> t -> unit
val try_lock_on : Engine.fiber -> t -> bool
val unlock_on : Engine.fiber -> t -> unit

