(* The domain-parallel experiment driver (the engine room of `mmrepro
   run`).

   PR 7 parallelized *around* the entries (one pool task per registry
   entry), which left the critical path at the slowest single entry —
   fig14 alone was ~78% of the whole suite. This driver parallelizes
   *inside* them: every cell of every selected entry ({!Plan}) becomes
   its own pool task, flattened across entries into ONE [Par] pool, with
   a weight-ordered scheduling hint so the heavy 64-core cells start
   first. A [Run] entry rides the same pool as a plan of one printing
   cell ({!Registry.plan}).

   Determinism argument, in three parts:
   - Each cell task starts with [Runner.reset_world_state], runs its one
     world on whatever domain claimed it, and returns its
     [Runner.result]s — a pure function of the cell.
   - The pool merges (and streams) task results strictly in submission
     order, whatever the claim order was.
   - Rendering happens on the *calling* domain, per entry, in submission
     order, with the cells' results re-assembled in declaration order —
     so the printed stream, the collected results feeding [mmrepro
     run --json], and the per-entry aggregates are byte-identical to a
     sequential run for any job count. *)

module Runner = Mm_workloads.Runner
module Out = Mm_util.Out
module Par = Mm_par.Par

type cell_time = {
  ct_label : string;
  ct_seconds : float; (* wall-clock of this cell on its worker domain *)
  ct_results : (string * Runner.result) list; (* labeled (run --json) *)
}

type task_result = {
  t_id : string;
  t_title : string;
  t_output : string; (* captured stdout: header, experiment, blank line *)
  t_results : (string * Runner.result) list; (* its cells' [ct_results] *)
  t_seconds : float; (* sum of the entry's cell seconds *)
  t_cells : cell_time list; (* per-cell wall-clock, declaration order *)
}

(* The simulator's state is mostly medium-lived (one world per
   experiment config), which the default GC pacing promotes and then
   re-marks aggressively. A larger minor heap and lazier major slices
   cut total GC work by roughly a fifth of the run time; simulated
   outputs are unaffected (the simulation is deterministic and the GC
   never observes virtual time). Applied to every worker domain; the
   CLI's [run] applies it to the main domain at startup. *)
let gc_pacing () =
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 300 }

(* What one pool task returns: one cell's measurement plus whatever it
   printed. Plan cells are print-free and a [Run] entry's one cell
   prints everything; either way the printed text is hoisted to just
   after the entry header, identically at every job count. *)
type piece = {
  value : Runner.result option;
  output : string;
  results : (string * Runner.result) list;
}

let run_cell ~collect (e : Registry.entry) (c : Plan.cell) () =
  Runner.reset_world_state ();
  if collect then Runner.start_collecting ();
  Runner.set_label e.id;
  let (value, results), output =
    Out.capture (fun () ->
        let v = c.Plan.c_run () in
        (v, if collect then Runner.stop_collecting () else []))
  in
  { value; output; results }

(* One selected entry, resolved: its flattened pool tasks plus what the
   calling domain needs to reassemble it. *)
type prepared = {
  p_entry : Registry.entry;
  p_plan : Plan.t;
  p_tasks : (float * (unit -> piece)) list; (* (weight, task) *)
}

let prepare ~collect (e : Registry.entry) =
  let plan = Registry.plan e in
  {
    p_entry = e;
    p_plan = plan;
    p_tasks =
      List.map
        (fun (c : Plan.cell) -> (c.Plan.c_weight, run_cell ~collect e c))
        plan.Plan.cells;
  }

(* Reassemble an entry from its pieces (in declaration order): replay
   the header, the cells' printed output (all of a [Run] entry's
   stream), and the plan's render under [Out.capture] on the calling
   domain. *)
let assemble (p : prepared) (pieces : piece Par.timed list) =
  let e = p.p_entry and plan = p.p_plan in
  let cells = List.combine plan.Plan.cells pieces in
  let (), output =
    Out.capture (fun () ->
        Out.printf "=== %s: %s ===\n\n" e.id e.title;
        List.iter (fun (_, t) -> Out.print_string t.Par.value.output) cells;
        plan.Plan.render
          (List.map (fun (c, t) -> (c, t.Par.value.value)) cells);
        Out.print_newline ())
  in
  {
    t_id = e.id;
    t_title = e.title;
    t_output = output;
    t_results = List.concat_map (fun (_, t) -> t.Par.value.results) cells;
    t_seconds = List.fold_left (fun a (_, t) -> a +. t.Par.seconds) 0.0 cells;
    t_cells =
      List.map
        (fun ((c : Plan.cell), t) ->
          {
            ct_label = c.Plan.c_label;
            ct_seconds = t.Par.seconds;
            ct_results = t.Par.value.results;
          })
        cells;
  }

(* Heaviest-first claim order over the flattened tasks (stable: equal
   weights keep submission order). Purely a wall-clock hint — the pool
   merges in submission order regardless. *)
let weight_order weights =
  let a = Array.of_list (List.mapi (fun i w -> (i, w)) weights) in
  Array.sort
    (fun (i, wa) (j, wb) ->
      match compare wb wa with 0 -> compare i j | c -> c)
    a;
  Array.map fst a

let run_entries ?emit ?(collect = false) ~jobs entries =
  let prepared = List.map (prepare ~collect) entries in
  let flat = List.concat_map (fun p -> p.p_tasks) prepared in
  let order = weight_order (List.map fst flat) in
  (* Stream: pieces arrive in submission order; cut them back into
     per-entry groups, render each completed entry on this (calling)
     domain, and hand it to [emit] — entries complete in submission
     order, so stdout stays byte-identical to sequential. *)
  let pending = Queue.create () in
  List.iter (fun p -> Queue.add (p, List.length p.p_tasks) pending) prepared;
  let buf = ref [] and out = ref [] in
  let finish p pieces =
    let task = assemble p pieces in
    out := task :: !out;
    Option.iter (fun f -> f task) emit
  in
  (* An entry with no cells has no pieces to wait for: assemble it the
     moment it reaches the head of the queue. *)
  let rec drain_empty () =
    match Queue.peek_opt pending with
    | Some (p, 0) ->
      ignore (Queue.pop pending);
      finish p [];
      drain_empty ()
    | _ -> ()
  in
  drain_empty ();
  let on_piece (t : piece Par.timed) =
    buf := t :: !buf;
    let p, want = Queue.peek pending in
    if List.length !buf = want then begin
      ignore (Queue.pop pending);
      finish p (List.rev !buf);
      buf := [];
      drain_empty ()
    end
  in
  ignore
    (Par.run_timed ~emit:on_piece ~worker_init:gc_pacing ~order ~jobs
       (List.map snd flat));
  List.rev !out

(* Print a completed entry's stream — the CLI's [emit]. *)
let emit_stdout (t : task_result) =
  print_string t.t_output;
  flush stdout
