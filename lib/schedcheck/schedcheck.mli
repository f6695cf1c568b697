(** Schedule exploration for the concurrent core.

    Runs small concurrent cursor workloads (overlapping mmap / munmap /
    mprotect / touch ranges over a fixed window, fork-clone,
    promote_huge) under controllable tie-break policies
    ({!Mm_sim.Sched}), checking

    - protocol safety live ({!Mm_verif.Live}: mutual exclusion, the P1
      transaction property, RCU grace periods) plus deadlock-freedom,
    - functional correctness of the final address space against a
      sequential reference replay in observed commit order.

    On violation the tie-break key sequence is shrunk greedily (shorter
    prefix, fewer forced preemptions) to a minimal deterministic
    counterexample, exportable as a {!Schedule} file. *)

(** {2 Mutants}

    Deliberately broken synchronization in the simulated primitives, to
    validate that the harness catches real protocol bugs. *)

type mutant =
  | M_none
  | M_rw_skip_handoff  (** write_unlock never hands off to parked writers *)
  | M_rcu_no_gp  (** RCU callbacks fire without waiting for readers *)

val mutant_name : mutant -> string
val mutant_of_string : string -> (mutant, string) result

(** {2 Configuration and single runs} *)

type config = {
  protocol : Cortenmm.Config.t;  (** {!Cortenmm.Config.adv} or [rw] *)
  cpus : int;
  ops_per_cpu : int;
  workload_seed : int;  (** generates the deterministic op streams *)
  mutant : mutant;
}

type run = {
  violations : string list;  (** empty means the run was clean *)
  keys : int array;  (** tie-break keys a [random] policy recorded *)
}

val run_once : config -> sched:(unit -> Mm_sim.Sched.t) -> run
(** Execute the workload in a fresh world built from [sched ()].
    Resets mutant flags and the monitor hook on exit. *)

(** {2 Exploration and shrinking} *)

type outcome =
  | Clean of { seeds : int }
  | Violation of {
      sched_seed : int;  (** the seed whose schedule violated *)
      keys : int array;  (** minimized key sequence *)
      violations : string list;
      shrink_runs : int;  (** replays spent shrinking *)
    }

val explore :
  ?amplitude:int ->
  ?seed0:int ->
  ?shrink_budget:int ->
  ?jobs:int ->
  seeds:int ->
  config ->
  outcome
(** Try [seeds] seeded-random schedules ([seed0], [seed0+1], ...); on
    the first violation, shrink (within [shrink_budget] replays,
    default 200) and stop. [amplitude] (default 8) bounds the drawn
    keys. [jobs] (default 1) shards the seed campaign across domains;
    the violation reported is always the lowest-seed one — the same a
    sequential scan finds first — so the outcome (seed, keys, wording)
    is identical for any value. *)

val shrink : config -> keys:int array -> budget:int -> int array * int
(** [shrink cfg ~keys ~budget] is [(smaller_keys, runs_used)]; the
    returned keys still violate. Exposed for tests. *)

(** {2 Schedule files} *)

val schedule_of : config -> int array -> Schedule.t

val replay_schedule : Schedule.t -> (string list, string) result
(** Re-run a schedule deterministically; [Ok violations] is the
    verdict ([[]] = clean). [Error] for an unknown protocol/mutant
    name. *)
