(** Benchmark spawning helpers. Virtual time is global to a world, so a
    benchmark runs its setup and measurement in ONE world separated by
    barriers, measuring only the final interval. *)

module Barrier : sig
  type t

  val make : total:int -> t

  val wait : t -> unit
  (** The last arriver releases everyone at its virtual time. *)
end

val run_phases :
  ?setup:(unit -> unit) ->
  ?prep:(int -> unit) ->
  ncpus:int ->
  measure:(int -> unit) ->
  unit ->
  int
(** [setup] runs alone on cpu 0; [prep cpu] runs on every CPU in
    parallel; then, after a barrier, [measure cpu]. Returns the measured
    interval in cycles (barrier release to last completion). *)

type result = { ops : int; cycles : int; ops_per_sec : float }

val result : ops:int -> cycles:int -> result
(** Construct a result; if collection is active, it is also recorded
    under the current label (see below). *)

(** {2 Machine-readable result collection}

    The bench driver labels each experiment ({!set_label}) and collects
    every {!result} constructed while collection is active — the basis of
    [bench --json]. *)

val start_collecting : unit -> unit
val set_label : string -> unit

val collected : unit -> (string * result) list
(** Results so far, in construction order. *)

val stop_collecting : unit -> (string * result) list

val reset_world_state : unit -> unit
(** Reset every piece of domain-local simulator state a world can
    observe — the bus's checker, mutant flags, RCU callback ids,
    file/device ids, the metrics and contention registries (unless the
    ring recorder is open, which owns them), result collection and the
    label — so a parallel task's behaviour and reported text are
    independent of what ran before it on the same domain. Every
    parallel driver calls this at task start, including at [-j 1], so
    outputs are byte-identical across job counts. *)
