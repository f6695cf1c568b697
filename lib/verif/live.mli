(** Runtime invariant checker over live engine state.

    Subscribes to the {!Mm_obs.Trace} event bus and checks, against the protocols
    *as implemented*, the safety properties the model checkers
    ({!Rw_model}, {!Adv_model}) verify on abstractions: per-lock mutual
    exclusion, rwlock writer exclusion and reader counting, the
    transaction property (no two active cursor transactions over
    overlapping ranges of one address space — paper P1), and RCU grace
    periods (a deferred callback fires only after every CPU inside a
    read-side section at defer time has exited).

    Violations are sticky: they are recorded, never raised, so a
    schedule explorer can finish the run and collect everything. Pure
    host-side bookkeeping — never advances virtual time.

    Typical use:
    {[
      let live = Live.create ~ncpus in
      Mm_obs.Trace.set_checker (Live.observe live);
      (* ... run the workload ... *)
      Mm_obs.Trace.clear_checker ();
      Live.check_quiescent live;
      match Live.violations live with [] -> () | vs -> report vs
    ]} *)

type t

val create : ncpus:int -> t

val observe : t -> Mm_obs.Event.t -> unit
(** Feed one stamped event; lock, RCU-section and transaction events
    name their CPU by the stamp. Install with
    [Mm_obs.Trace.set_checker (observe t)]. *)

val check_quiescent : t -> unit
(** Call after the run: records violations for locks still held and
    transactions never committed. *)

val violations : t -> string list
(** All recorded violations, oldest first (capped at 64). *)

val ok : t -> bool

val events_seen : t -> int
(** Number of events consumed (sanity check that instrumentation was
    live). *)
