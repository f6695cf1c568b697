(** Preemption-based RCU model: near-free read-side sections (per-CPU
    nesting counters, no shared-line traffic) and grace-period-deferred
    frees, as used by CortenMM_adv's lock-free traversal phase. *)

type t

val make : ncpus:int -> t
val read_lock : t -> unit
val read_unlock : t -> unit
val in_read_section : t -> cpu:int -> bool

val defer : t -> (unit -> unit) -> unit
(** Run the callback once every CPU currently inside a read-side critical
    section has exited (immediately if none is). The callback executes in
    the context of the last such CPU's [read_unlock]. *)

val synchronize : t -> unit
(** Block the calling fiber until a grace period elapses. *)

(** The same transitions on the calling fiber, which the caller looked
    up once ({!Engine.fiber}); each form above is its [_on] form applied
    to [Engine.fiber ()]. *)

val read_lock_on : Engine.fiber -> t -> unit
val read_unlock_on : Engine.fiber -> t -> unit
val defer_on : Engine.fiber -> t -> (unit -> unit) -> unit
val synchronize_on : Engine.fiber -> t -> unit

val immediate : t -> int

val set_mutant_no_grace_period : bool -> unit
(** Fault injection for the schedcheck harness (domain-local, default
    off): [defer] runs its callback immediately, ignoring the grace
    period — the use-after-free class of RCU bug. Only the schedule
    explorer should ever set this; it must reset it before returning. *)

val reset_ids : unit -> unit
(** Reset the (domain-local) callback correlation-id counter; parallel
    drivers call this at task start so reported ids are independent of
    what ran before on the same domain. *)
