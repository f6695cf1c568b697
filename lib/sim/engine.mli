(** Deterministic discrete-event multicore simulator.

    Virtual CPUs run OCaml fibers (via effects). Local computation advances
    a per-fiber clock; shared-state interactions are globally ordered by
    virtual time; cache-line contention is modelled by {!Line}. See
    DESIGN.md for why this reproduces the paper's multicore behaviour. *)

type world
type parked

type fiber = private {
  f_id : int;
  f_cpu : int;
  mutable f_time : int;
  mutable f_done : bool;
  f_world : world;
}
(** The same record across parks: code may look it up once and keep it. *)

type stats = {
  mutable events : int;
  mutable parks : int;
  mutable wakes : int;
  mutable rmws : int;
  mutable line_stalls : int;
  mutable max_ready_queue : int;
}

exception Deadlock of string

val create : ncpus:int -> world
(** A world with the {!Sched.fifo} tie-break policy: the historical
    deterministic order, bit-for-bit. *)

val create_sched : sched:Sched.t -> ncpus:int -> world
(** A world with an explicit tie-break policy. The policy is consulted
    once per event push and orders same-time events (ready fibers,
    [serialize] re-entries) — nothing across distinct virtual times.
    Policies are stateful: pass a fresh one per world. *)

val spawn : world -> cpu:int -> (unit -> unit) -> unit

val run : world -> unit
(** Run all spawned fibers to completion. Raises {!Deadlock} if fibers
    remain parked with no pending wake-up event.

    Worlds are domain-confined: {!spawn} and {!run} assert that the
    calling domain is the one that created the world ([Failure]
    otherwise). The "currently running world" pointer is domain-local,
    so independent worlds may run concurrently on different domains
    (see [lib/par]) — but a single world must be constructed, run and
    dropped entirely within one domain. *)

val cpu_time : world -> int -> int
(** Final virtual time of a CPU (max over its finished fibers). *)

val max_time : world -> int
val stats : world -> stats

(** The functions below may only be called from inside a running fiber. *)

val fiber : unit -> fiber
val now : unit -> int
val cpu_id : unit -> int
val ncpus : unit -> int

val tick : int -> unit
(** Advance the current fiber's clock by a non-negative cost. *)

val advance_to : int -> unit
(** Advance the current fiber's clock to at least the given time. *)

(** Callable anywhere; one domain-local lookup each. *)

val current : unit -> fiber option
val in_fiber : unit -> bool
(** Whether the caller is executing inside a simulation fiber. Shared data
    structures use this to charge costs only under simulation, so the same
    code can run in plain unit tests. *)

val charge : int -> unit
(** {!tick} inside a fiber, nothing outside one. *)

val cpu_or_zero : unit -> int
(** {!cpu_id} inside a fiber, 0 outside one. *)

(** On a fiber the caller holds, with no lookup. [tick], [serialize],
    [ncpus], [obs] (inside a fiber), [Line.rmw] and [Line.read] are these
    applied to [fiber ()]. *)

val tick_on : fiber -> int -> unit
val serialize_on : fiber -> unit
val ncpus_on : fiber -> int
val obs_on : fiber -> Mm_obs.Event.payload -> unit

val park : (parked -> unit) -> unit
(** Suspend the current fiber; the callback receives a handle that a later
    [unpark] resumes. The callback runs before the fiber is suspended...
    i.e. it must only register the handle, not resume it synchronously. *)

val unpark : parked -> at:int -> unit
(** Schedule a parked fiber to resume at the given virtual time (its clock
    is advanced to [at] if behind). Each handle may be unparked once. *)

val parked_time : parked -> int
val parked_cpu : parked -> int

val serialize : unit -> unit
(** Re-enter the scheduler at the current time so that subsequent shared
    state inspection happens in global virtual-time order. Every simulated
    synchronization primitive calls this before touching its state. *)

val obs : Mm_obs.Event.payload -> unit
(** Emit an event to this domain's {!Mm_obs.Trace} subscribers, stamped
    with the current fiber's virtual time and CPU, or with time 0 and cpu
    -1 outside a fiber. Guard call sites with [Mm_obs.Trace.on ()] so
    payloads are not allocated while nothing subscribes. Never advances
    virtual time. *)

(** Cache-line contention model. *)
module Line : sig
  type t

  val make : unit -> t

  val rmw_on : fiber -> t -> unit
  (** Atomic read-modify-write: waits for the line, pays a transfer cost if
      another CPU owned it, and takes exclusive ownership. Concurrent RMWs
      on one line serialize — the root cause of lock-word bottlenecks. *)

  val read_on : fiber -> t -> unit
  (** Plain shared read: pays a miss if remote but does not serialize. *)

  val write_on : fiber -> t -> unit
  (** Plain store by one owner; invalidates sharers. *)

  val rmw : t -> unit
  val read : t -> unit

  val avail : t -> int
  (** Virtual time at which the line is next free. *)

  val owner : t -> int
  (** The CPU holding the line exclusive; [-1] none, [-2] shared. *)
end
