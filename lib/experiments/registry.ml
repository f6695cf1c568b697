(* The experiment registry: every table and figure of the paper's
   evaluation, by id, with the driver that regenerates it.

   Entries come in two forms. Cell-based entries ([Cells]) declare their
   independent simulation cells plus a pure render ({!Plan}), which lets
   the driver parallelize *inside* the entry; entries whose measurements
   do not decompose into single-world cells (source-derived tables,
   multi-probe worlds like fig18/fig22) are one print-as-you-go function
   ([Run]), which {!plan} turns into a plan of one printing cell. *)

type body =
  | Run of (unit -> unit)  (* one print-as-you-go task *)
  | Cells of (unit -> Plan.t)  (* plan built at run time, cells + render *)

type entry = {
  id : string;
  title : string;
  body : body;
}

let all =
  [
    { id = "fig1"; title = "motivation: multicore mmap-PF and munmap"; body = Cells (fun () -> Fig_micro.fig1_plan ()) };
    { id = "tab2"; title = "feature matrix"; body = Run Fig_misc.tab2 };
    { id = "fig13"; title = "single-thread microbenchmarks"; body = Cells (fun () -> Fig_micro.fig13_plan ()) };
    { id = "fig14"; title = "multithread microbenchmark sweeps"; body = Cells (fun () -> Fig_micro.fig14_plan ()) };
    { id = "fig15"; title = "single-thread real-world apps"; body = Cells (fun () -> Fig_apps.fig15_plan ()) };
    { id = "fig16"; title = "JVM thread creation + metis (with ablations)"; body = Cells (fun () -> Fig_apps.fig16_plan ()) };
    { id = "fig17"; title = "dedup + psearchy under ptmalloc/tcmalloc"; body = Cells (fun () -> Fig_apps.fig17_plan ()) };
    { id = "fig18"; title = "allocator memory usage"; body = Run Fig_apps.fig18 };
    { id = "fig19"; title = "RISC-V port microbenchmarks"; body = Cells (fun () -> Fig_micro.fig19_plan ()) };
    { id = "fig20"; title = "LMbench fork / fork+exec / shell"; body = Cells (fun () -> Fig_misc.fig20_plan ()) };
    { id = "fig21"; title = "8-thread other-PARSEC"; body = Cells (fun () -> Fig_apps.fig21_plan ()) };
    { id = "fig22"; title = "memory overhead"; body = Run Fig_misc.fig22 };
    { id = "tab4"; title = "verification effort / checker statistics"; body = Run Fig_misc.tab4 };
    { id = "tab5"; title = "portability LoC"; body = Run Fig_misc.tab5 };
    (* Extensions beyond the paper's evaluation (its §4.5 future work). *)
    { id = "ext-numa"; title = "extension: NUMA policies in the metadata"; body = Cells (fun () -> Fig_ext.ext_numa_plan ()) };
    { id = "ext-thp"; title = "extension: transparent huge pages"; body = Run Fig_ext.ext_thp };
    { id = "ext-swapd"; title = "extension: second-chance swap daemon"; body = Run Fig_ext.ext_swapd };
    { id = "ext-trace"; title = "extension: trace replay across systems"; body = Cells (fun () -> Fig_ext.ext_trace_plan ()) };
    { id = "ext-fleet"; title = "extension: fork_fleet process-fleet serving"; body = Cells (fun () -> Fig_ext.ext_fleet_plan ()) };
    { id = "ext-reclaim"; title = "extension: fault tails under page-out pressure"; body = Cells (fun () -> Fig_ext.ext_reclaim_plan ()) };
  ]

let ids = List.map (fun e -> e.id) all

(* Every entry as a plan. A [Run] function becomes one cell, labelled
   with the entry id, that prints as it goes and returns no result; the
   driver hoists a cell's printed output to just after the entry header,
   so the stream is the function's own. Weight 100 is about a mid-sized
   cell: such entries start neither first nor last (the hint only moves
   wall-clock, never bytes). *)
let plan e =
  match e.body with
  | Cells mk -> mk ()
  | Run f ->
    {
      Plan.cells =
        [
          Plan.cell ~label:e.id ~weight:100.0 (fun () ->
              f ();
              None);
        ];
      render = ignore;
    }

(* Run one entry sequentially on the calling domain (no header, no
   world-state resets). The parallel path lives in [Driver.run_entries]. *)
let run_entry e = Plan.run_seq (plan e)

(* Same shape as [System.Registry.find]: the error is a ready-to-print
   message embedding the valid ids. *)
let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown experiment id %S (valid: %s)" id
         (String.concat ", " ids))
