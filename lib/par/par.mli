(** Deterministic fork-join work pool over OCaml 5 domains.

    Executes a list of independent world thunks on [min jobs n] domains
    and merges results in submission order, so every observable output
    derived from them is byte-for-byte identical for any [jobs]. Tasks
    must be fully isolated simulation worlds: construct, run and drop
    everything inside the thunk (all simulator globals are
    domain-local; see [Mm_workloads.Runner.reset_world_state]). *)

type 'a timed = { value : 'a; seconds : float }
(** A task's result plus the wall-clock seconds it spent in its worker
    (host-side timing only — virtual time is unaffected). *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val count_of_string : flag:string -> string -> (int, string) result
(** Typed validation for count flags ([-j], [--cpus], ...): [Ok n] for a
    positive integer, otherwise a ready-to-print error message naming
    [flag] (same result-style shape as the registry lookups). *)

val run_timed :
  ?emit:('a timed -> unit) ->
  ?worker_init:(unit -> unit) ->
  ?order:int array ->
  jobs:int ->
  (unit -> 'a) list ->
  'a timed list
(** [run_timed ~jobs tasks] runs every task and returns the results with
    per-task wall-clock, in submission order. [emit] is called from the
    *calling* domain, once per task, strictly in submission order, as
    soon as each result (and all its predecessors) is available — the
    streaming form of the ordered merge. [worker_init] runs once at the
    start of each spawned worker domain (e.g. GC pacing); it does not run
    on the calling domain. [jobs = 1] (or a single task) executes inline
    on the calling domain through the same per-task path.

    [order], a permutation of [0 .. n-1], is a scheduling hint: workers
    claim tasks in that order (put the heaviest first so no domain ends
    up finishing a giant task alone). It only ever changes wall-clock
    time — result slots, merge order and emission order stay submission
    order — and is ignored on the inline [jobs = 1] path, which always
    executes in submission order.

    If a task raises, tasks submitted after the failure are skipped
    (tasks submitted before it always run, whatever [order] says) and,
    after all workers join, the exception of the lowest-submitted failed
    task is re-raised with its backtrace — the same exception a
    sequential run would have surfaced first.

    @raise Invalid_argument if [jobs <= 0] or [order] is not a
    permutation of the task indices. *)

val run :
  ?worker_init:(unit -> unit) -> jobs:int -> (unit -> 'a) list -> 'a list
(** [run_timed] without the timings. *)

val map :
  ?worker_init:(unit -> unit) -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [run ~jobs (List.map (fun x () -> f x) xs)]. *)
