(** Domain-parallel experiment driver.

    Flattens the cells of every selected entry ({!Registry.plan}: a
    [Run] entry is one printing cell) into one {!Mm_par.Par} pool
    with a heaviest-first scheduling hint, then renders each entry on
    the calling domain in submission order. The printed stream, the
    collected results, and the per-entry aggregates are byte-identical
    to a sequential run for any job count, while the parallel critical
    path drops from "slowest entry" to "slowest cell". *)

type cell_time = {
  ct_label : string;  (** the cell's declared label (entry id for [Run]) *)
  ct_seconds : float;  (** wall-clock of this cell on its worker domain *)
  ct_results : (string * Mm_workloads.Runner.result) list;
      (** the labeled results collected while this cell ran (run --json
          writes each with the cell's label) *)
}

type task_result = {
  t_id : string;
  t_title : string;
  t_output : string;
      (** everything the experiment printed, header and trailing blank
          line included — replay with [print_string] *)
  t_results : (string * Mm_workloads.Runner.result) list;
      (** labeled results collected while the entry's cells ran, in cell
          declaration order: the concatenation of the cells'
          [ct_results] *)
  t_seconds : float;
      (** sum of the entry's cell seconds (rendering, which is
          microseconds of pure formatting, is not counted) *)
  t_cells : cell_time list;
      (** per-cell wall-clock in declaration order; a single entry-wide
          cell for [Run] entries *)
}

val run_entries :
  ?emit:(task_result -> unit) ->
  ?collect:bool ->
  jobs:int ->
  Registry.entry list ->
  task_result list
(** Run every entry and return the results in registry-submission
    order. [emit] is called on the calling domain, strictly in
    submission order, as each entry (and all its predecessors) completes
    — print [t_output] there for a live stream. [collect] (default
    false) gathers each entry's labeled results. Each cell starts with
    {!Mm_workloads.Runner.reset_world_state}, at [jobs = 1] too, so
    outputs are byte-identical across job counts. *)

val emit_stdout : task_result -> unit
(** Print a completed entry's captured stream to stdout and flush. *)

val gc_pacing : unit -> unit
(** The GC settings every worker domain runs with (a larger minor heap,
    lazier major slices); call it once on the main domain too. Simulated
    outputs never depend on it. *)
