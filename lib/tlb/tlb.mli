(** Per-CPU TLB model and shootdown strategies: synchronous broadcast
    (Linux), early acknowledgement, and LATR-style lazy shootdown.

    Orthogonal to the strategy, a shootdown {!policy} decides {e when}
    the remote work happens: [Immediate] (the default — the historical,
    byte-identical behavior) or [Batched] (remote invalidations coalesce
    into one round per deferral window — see {!shootdown}). *)

type strategy = Sync | Early_ack | Latr

type policy =
  | Immediate  (** remote invalidation at the shootdown call (default) *)
  | Batched of { window : int; max_batch : int }
      (** defer remote work; complete a coalesced round when [max_batch]
          records are pending or the oldest is [window] cycles stale
          (checked on {!timer_tick}) *)

type counters = {
  mutable shootdowns : int;
  mutable ipis : int;
  mutable local_flushes : int;
  mutable latr_published : int;
  mutable latr_drained : int;
  mutable batched : int;  (** shootdown records deferred to a batch *)
  mutable batch_flushes : int;  (** coalesced rounds performed *)
  mutable worst_stall : int;  (** max enqueue-to-flush age, cycles *)
}

type t

val create : ?policy:policy -> ncpus:int -> strategy:strategy -> unit -> t
val strategy : t -> strategy
val strategy_to_string : strategy -> string

val policy : t -> policy
val policy_to_string : policy -> string

val set_policy : t -> policy -> unit
(** Install a shootdown policy. Any pending batch is completed first
    (under the old accounting), so no deferred work is ever lost. *)

val deferring : t -> bool
(** [policy t <> Immediate] — callers that can defer dependent work
    (e.g. frame frees) behind {!shootdown}'s [on_flush] check this. *)

val install :
  t -> cpu:int -> vpn:int -> pfn:int -> writable:bool -> ?key:int -> unit -> unit

(** A hit requires the cached translation to permit the access: a write to
    a read-only cached entry (e.g. COW) misses and takes the fault path.
    Returns the pfn and the cached MPK key (hardware checks PKRU on every
    access, hit or not). *)
val lookup : t -> cpu:int -> vpn:int -> write:bool -> (int * int) option
val flush_local : t -> cpu:int -> vpns:int list -> unit

val shootdown :
  ?on_flush:(unit -> unit) ->
  ?sync:bool ->
  t ->
  targets:bool array ->
  vpns:int list ->
  unit
(** Invalidate [vpns] on each CPU whose bit is set in [targets] (plus the
    calling CPU, immediately — under either policy). Must be called from
    inside a fiber; the initiator is charged the selected strategy's cost
    profile. [on_flush] runs once the remote invalidation for this call
    has completed: immediately under the [Immediate] policy (or when no
    remote CPU is targeted), at batch-flush time under [Batched] — the
    hook for work that must wait out stale remote translations, such as
    deferred frame frees. With [~sync:true] (default false) the remote
    invalidation completes before the call returns under every strategy
    and policy: LATR sends IPIs as [Sync] does, and nothing is batched. *)

val shootdown_full : t -> targets:bool array -> unit
(** Invalidate the targets' entire TLBs (synchronous; used beyond
    per-page thresholds and after reference-bit batch clears). Completes
    any pending batch first. *)

val timer_tick : t -> cpu:int -> unit
(** Drain the CPU's lazy-shootdown buffer (LATR), and complete the
    pending batch if its oldest record has aged past the policy's
    deferral window. *)

val flush_pending : t -> unit
(** Complete the pending batch now (no-op when empty). The caller — if
    in a fiber — is charged the coalesced round. *)

val batch_pending : t -> int
(** Number of shootdown records currently deferred. *)

val pending_count : t -> cpu:int -> int
val counters : t -> counters
