(* mmrepro — command-line driver for the CortenMM reproduction.

   Subcommands:
     list            show every reproducible table/figure and the backends
     run [IDS...]    run experiments (all when none given), with --json
                     results and --wallclock host timings
     bechamel        host timings of the substrate itself (Bechamel)
     verify          run the full verification suite (protocol model
                     checking, refinement, exhaustive functional
                     correctness, linearizability)
     sweep           one microbenchmark over a core sweep (quick look)
     trace           generate / replay MM operation traces
     oracle          differential cross-backend oracle on one trace
     serve           open-loop session fleet with SLO percentiles
     schedcheck      schedule exploration of the concurrent core *)

open Cmdliner
module Driver = Mm_experiments.Driver
module Registry = Mm_experiments.Registry

(* Shared observability options: record a deterministic event trace
   (Chrome trace_event JSON, Perfetto-loadable) and/or print the
   lock-contention report after the run. *)

let obs_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a deterministic event trace of the run and write it as \
           Chrome trace_event JSON (load in ui.perfetto.dev or \
           chrome://tracing).")

let obs_report =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "After the run, print the lock-contention report (locks ranked by \
           serialized cycles) and the metrics registry.")

(* Every count flag (-j, --cpus, --ops, --every, --sessions, --seeds,
   --amplitude) parses through the typed [Par.count_of_string], so 0,
   negatives and non-numbers are usage errors (exit 124) naming the
   flag, never a crash or a vacuous pass. *)
let count ?docv names ~default doc =
  let name = List.hd names in
  let flag = (if String.length name = 1 then "-" else "--") ^ name in
  let positive =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m)
            (Mm_par.Par.count_of_string ~flag s)),
        Format.pp_print_int )
  in
  Arg.(value & opt positive default & info names ?docv ~doc)

(* -j/--jobs for the drivers whose work decomposes into independent
   worlds (run, oracle, serve, schedcheck); outputs are byte-identical
   for any accepted value. *)
let jobs_arg =
  count [ "j"; "jobs" ] ~docv:"N" ~default:1
    "Worker domains to shard independent simulation worlds across \
     (default 1). Results are byte-identical for any value; only \
     wall-clock time changes."

let cpus_arg default = count [ "cpus" ] ~default "Virtual CPUs."
let ops_arg default = count [ "ops" ] ~default "Ops per CPU."
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let profile_arg doc =
  Arg.(
    value
    & opt
        (enum
           [
             ("churn", Mm_workloads.Trace.Churn);
             ("faults", Mm_workloads.Trace.Faults);
             ("mixed", Mm_workloads.Trace.Mixed);
             ("forks", Mm_workloads.Trace.Forks);
             ("reclaim", Mm_workloads.Trace.Reclaim);
           ])
        Mm_workloads.Trace.Mixed
    & info [ "profile" ] ~doc)

let with_obs ~trace ~report f =
  if trace <> None || report then Mm_obs.Trace.start ();
  let v = f () in
  (match trace with
  | Some path ->
    let events = Mm_obs.Trace.events () in
    Mm_obs.Chrome.write ~path events;
    Printf.printf "wrote %d trace events to %s (%d dropped)\n%!"
      (List.length events) path
      (Mm_obs.Trace.dropped ())
  | None -> ());
  if report then begin
    print_string (Mm_obs.Contention.report ());
    print_newline ();
    print_string (Mm_obs.Metrics.dump ())
  end;
  if trace <> None || report then ignore (Mm_obs.Trace.stop ());
  v

let list_cmd =
  let doc = "List the reproducible tables and figures, then the backends." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Registry.id e.Registry.title)
      Registry.all;
    Printf.printf "backends: %s\n"
      (String.concat ", " Mm_workloads.System.Registry.names)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -- run: the experiments, their results and their host timings -- *)

(* One result per line, each with its entry id and its plan cell's
   label, so a diff of two files names the cells that moved. *)
let write_results_json ~path (tasks : Driver.task_result list) =
  let open Mm_obs in
  let lines =
    List.concat_map
      (fun (c : Driver.cell_time) ->
        List.map
          (fun (id, (r : Mm_workloads.Runner.result)) ->
            Json.to_string
              (Json.Obj
                 [
                   ("id", Json.String id);
                   ("cell", Json.String c.Driver.ct_label);
                   ("ops", Json.Int r.ops);
                   ("cycles", Json.Int r.cycles);
                   ("ops_per_sec", Json.Float r.ops_per_sec);
                 ]))
          c.Driver.ct_results)
      (List.concat_map (fun t -> t.Driver.t_cells) tasks)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"results\":[\n";
      output_string oc (String.concat ",\n" lines);
      output_string oc "\n]}\n")

(* Wall-clock timing (--wallclock) is host-side only: it never touches
   the simulated (deterministic) outputs. Per-entry seconds come from
   the pool ({!Par.timed}); the totals compare the *elapsed* time of a
   sequential and a parallel pass over the same entries — the quantity
   [-j N] actually improves (per-entry times barely move: each entry is
   still one world on one domain). *)

(* The slowest single cell: the lower bound the parallel elapsed time
   converges to as -j grows (the suite's critical path now that the big
   entries are split into per-world cells). *)
let max_cell tasks =
  List.fold_left
    (fun acc (t : Driver.task_result) ->
      List.fold_left
        (fun acc (c : Driver.cell_time) ->
          if c.Driver.ct_seconds > snd acc then
            (t.Driver.t_id ^ "/" ^ c.Driver.ct_label, c.Driver.ct_seconds)
          else acc)
        acc t.Driver.t_cells)
    ("", 0.0) tasks

(* This process's peak resident set (VmHWM) in MiB, where the kernel
   reports it in /proc/self/status (Linux). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
            Some (float_of_int kb /. 1024.0))
      | _ -> find ()
      | exception End_of_file -> None
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

let write_wallclock_json ~path ~jobs ~elapsed_seq ~elapsed_par
    ~(seq : Driver.task_result list) ~(par : Driver.task_result list) =
  let open Mm_obs in
  let speedup = if elapsed_par > 0. then elapsed_seq /. elapsed_par else 1.0 in
  let max_cell_label, max_cell_seq = max_cell seq in
  let _, max_cell_par = max_cell par in
  let nproc = Domain.recommended_domain_count () in
  let peak_rss = peak_rss_mb () in
  Json.write_file ~path
    (Json.Obj
       [
         ("jobs", Json.Int jobs);
         (* The host the timings come from. *)
         ("nproc", Json.Int nproc);
         ( "peak_rss_mb",
           match peak_rss with Some mb -> Json.Float mb | None -> Json.Null );
         ( "wallclock",
           Json.List
             (List.map2
                (fun (s : Driver.task_result) (p : Driver.task_result) ->
                  Json.Obj
                    [
                      ("id", Json.String s.Driver.t_id);
                      ("seconds_seq", Json.Float s.Driver.t_seconds);
                      ("seconds_par", Json.Float p.Driver.t_seconds);
                      ( "speedup",
                        Json.Float
                          (if p.Driver.t_seconds > 0. then
                             s.Driver.t_seconds /. p.Driver.t_seconds
                           else 1.0) );
                      ( "cells",
                        Json.List
                          (List.map2
                             (fun (cs : Driver.cell_time)
                                  (cp : Driver.cell_time) ->
                               Json.Obj
                                 [
                                   ("label", Json.String cs.Driver.ct_label);
                                   ( "seconds_seq",
                                     Json.Float cs.Driver.ct_seconds );
                                   ( "seconds_par",
                                     Json.Float cp.Driver.ct_seconds );
                                 ])
                             s.Driver.t_cells p.Driver.t_cells) );
                    ])
                seq par) );
         ("total_seconds_seq", Json.Float elapsed_seq);
         ("total_seconds_par", Json.Float elapsed_par);
         ("speedup", Json.Float speedup);
         (* Critical-path summary: elapsed time at -j N is bounded below
            by the slowest single cell. *)
         ("max_cell_label", Json.String max_cell_label);
         ("max_cell_seconds_seq", Json.Float max_cell_seq);
         ("max_cell_seconds_par", Json.Float max_cell_par);
       ]);
  Printf.printf "## Wall-clock per experiment driver (-j %d)\n\n" jobs;
  Printf.printf "  %-10s %12s %12s %7s\n" "id" "seq (s)"
    (Printf.sprintf "-j%d (s)" jobs)
    "cells";
  List.iter2
    (fun (s : Driver.task_result) (p : Driver.task_result) ->
      Printf.printf "  %-10s %12.3f %12.3f %7d\n" s.Driver.t_id
        s.Driver.t_seconds p.Driver.t_seconds
        (List.length s.Driver.t_cells))
    seq par;
  Printf.printf "  %-10s %12.3f %12.3f  (elapsed; speedup %.2fx)\n" "total"
    elapsed_seq elapsed_par speedup;
  Printf.printf "  critical path: %.3fs in %s (max cell vs %.3fs total)\n"
    max_cell_seq max_cell_label elapsed_seq;
  Printf.printf "  host: nproc %d, peak RSS %s\n" nproc
    (match peak_rss with
    | Some mb -> Printf.sprintf "%.1f MiB" mb
    | None -> "unknown");
  Printf.printf "wrote wall-clock timings to %s\n%!" path

let run_cmd =
  let doc = "Run experiments by id (all when none given)." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write every collected result (label, ops, cycles, ops/s) here.")
  in
  let wallclock =
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_wallclock.json") (some string) None
      & info [ "wallclock" ] ~docv:"FILE"
          ~doc:
            "Write per-entry and per-cell host wall-clock timings to \
             $(docv). At -j N a second, sequential pass supplies the \
             reference timings and must reproduce every entry's output and \
             results.")
  in
  let run ids jobs json wallclock trace report =
    Driver.gc_pacing ();
    (* A bare --wallclock takes the next word as its FILE, so in
       `run --wallclock fig13` the id would be lost and every entry run. *)
    (match wallclock with
    | Some f when List.mem f Registry.ids ->
      Printf.eprintf
        "mmrepro: --wallclock took the id %s as its FILE; write \
         --wallclock=FILE or put --wallclock after the ids\n"
        f;
      exit 1
    | _ -> ());
    (* Resolve every id before running anything, so a typo fails fast
       instead of silently running a subset. *)
    let entries =
      match ids with
      | [] -> Registry.all
      | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Ok e -> e
            | Error msg ->
              Printf.eprintf "mmrepro: %s\n" msg;
              exit 1)
          ids
    in
    let jobs =
      if (trace <> None || report) && jobs > 1 then begin
        Printf.eprintf
          "mmrepro: --trace/--report force -j 1 (one tracing session \
           accumulates across the whole run)\n\
           %!";
        1
      end
      else jobs
    in
    let collect = json <> None in
    let results, elapsed =
      with_obs ~trace ~report (fun () ->
          let t0 = Unix.gettimeofday () in
          let results =
            Driver.run_entries ~emit:Driver.emit_stdout ~collect ~jobs entries
          in
          (results, Unix.gettimeofday () -. t0))
    in
    (match json with
    | Some path ->
      write_results_json ~path results;
      Printf.printf "wrote results to %s\n%!" path
    | None -> ());
    match wallclock with
    | None -> ()
    | Some path ->
      (* Honest seq-vs-par numbers: at [-j 1] one pass is both; at
         [-j N] a second, output-suppressed sequential pass provides the
         reference timings — and doubles as a byte-identity gate over
         every entry's output and collected results. *)
      let seq, elapsed_seq =
        if jobs = 1 then (results, elapsed)
        else begin
          let t0 = Unix.gettimeofday () in
          let seq = Driver.run_entries ~collect ~jobs:1 entries in
          let elapsed_seq = Unix.gettimeofday () -. t0 in
          List.iter2
            (fun (p : Driver.task_result) (s : Driver.task_result) ->
              if p.Driver.t_output <> s.Driver.t_output
                 || p.Driver.t_results <> s.Driver.t_results
              then begin
                Printf.eprintf
                  "mmrepro: -j %d output for %s differs from the sequential \
                   reference — parallel merge bug\n"
                  jobs p.Driver.t_id;
                exit 1
              end)
            results seq;
          (seq, elapsed_seq)
        end
      in
      write_wallclock_json ~path ~jobs ~elapsed_seq ~elapsed_par:elapsed ~seq
        ~par:results
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ ids $ jobs_arg $ json $ wallclock $ obs_trace $ obs_report)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let isa = Mm_hal.Isa.x86_64 in
  let pte_roundtrip =
    Test.make ~name:"hal: x86-64 PTE encode+decode"
      (Staged.stage (fun () ->
           let pte = Mm_hal.Pte.leaf ~pfn:0x1234 ~perm:Mm_hal.Perm.rw () in
           ignore
             (Mm_hal.Isa.decode isa ~level:1
                (Mm_hal.Isa.encode isa ~level:1 pte))))
  in
  let buddy_cycle =
    Test.make ~name:"phys: buddy alloc+free"
      (Staged.stage
         (let b = Mm_phys.Buddy.create ~nframes:(1 lsl 24) in
          fun () ->
            let pfn = Mm_phys.Buddy.alloc b ~order:0 in
            Mm_phys.Buddy.free b ~pfn ~order:0))
  in
  let pt_map_unmap =
    Test.make ~name:"pt: walk_create+set+clear"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let pt = Mm_pt.Pt.create phys isa in
          let vaddr = ref 0x1000_0000 in
          fun () ->
            let node = Mm_pt.Pt.walk_create pt ~to_level:1 !vaddr in
            let idx = Mm_pt.Pt.index pt ~level:1 ~vaddr:!vaddr in
            Mm_pt.Pt.set pt node idx
              (Mm_hal.Pte.leaf ~pfn:1 ~perm:Mm_hal.Perm.rw ());
            Mm_pt.Pt.set pt node idx Mm_hal.Pte.Absent;
            vaddr := !vaddr + 4096))
  in
  let vma_find =
    Test.make ~name:"linux: vma tree find"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let t = Mm_linux.Vma.create phys in
          for i = 0 to 99 do
            ignore
              (Mm_linux.Vma.insert t
                 ~start:(0x1000_0000 + (i * 0x10000))
                 ~end_:(0x1000_0000 + (i * 0x10000) + 0x8000)
                 ~perm:Mm_hal.Perm.rw)
          done;
          fun () -> ignore (Mm_linux.Vma.find t 0x1000_4000)))
  in
  let checker_run =
    Test.make ~name:"verif: rw model check (2 cores)"
      (Staged.stage (fun () ->
           let tree = Mm_verif.Tree.create ~arity:2 ~depth:3 in
           ignore (Mm_verif.Rw_model.check ~tree ~targets:[| 1; 3 |] ())))
  in
  let sim_microop =
    Test.make ~name:"sim: one simulated mmap+touch+munmap"
      (Staged.stage (fun () ->
           let w = Mm_sim.Engine.create ~ncpus:1 in
           Mm_sim.Engine.spawn w ~cpu:0 (fun () ->
               let kernel = Cortenmm.Kernel.create ~ncpus:1 () in
               let asp =
                 Cortenmm.Addr_space.create kernel Cortenmm.Config.adv
               in
               let a =
                 match Cortenmm.Mm.mmap_r asp ~len:16384 ~perm:Mm_hal.Perm.rw () with
                 | Ok a -> a
                 | Error e -> raise (Mm_hal.Errno.Error e)
               in
               Cortenmm.Mm.touch_range asp ~addr:a ~len:16384 ~write:true;
               ignore (Cortenmm.Mm.munmap_r asp ~addr:a ~len:16384));
           Mm_sim.Engine.run w))
  in
  let maple_ops =
    Test.make ~name:"linux: maple tree insert+find+remove"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let t = Mm_linux.Vma.create phys in
          let next = ref 0x1000_0000 in
          fun () ->
            let s = !next in
            next := s + 0x10000;
            let _ = Mm_linux.Vma.insert t ~start:s ~end_:(s + 0x8000)
                      ~perm:Mm_hal.Perm.rw in
            ignore (Mm_linux.Vma.find t (s + 0x4000));
            Mm_linux.Vma.remove_node t s))
  in
  let slab_cycle =
    Test.make ~name:"phys: slab alloc+free"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let c = Mm_phys.Slab.create phys ~name:"bench" ~obj_size:200 in
          fun () ->
            let h = Mm_phys.Slab.alloc c in
            Mm_phys.Slab.free c h))
  in
  let tests =
    [
      pte_roundtrip; buddy_cycle; slab_cycle; pt_map_unmap; vma_find;
      maple_ops; checker_run; sim_microop;
    ]
  in
  Printf.printf "## Bechamel — host-level timings of the substrate\n\n%!";
  List.iter
    (fun test ->
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-45s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    tests;
  print_newline ()

let bechamel_cmd =
  let doc =
    "Time the substrate itself on the host with Bechamel: PTE codecs, \
     allocators, page-table ops, the VMA and maple trees, the model checker \
     and one simulated mmap+touch+munmap."
  in
  Cmd.v (Cmd.info "bechamel" ~doc) Term.(const bechamel_suite $ const ())

let verify_cmd =
  let doc =
    "Run the verification suite: exhaustive model checking of both locking \
     protocols (P1), refinement to the Atomic Spec, exhaustive functional \
     correctness of the cursor operations (P2), and linearizability of \
     concurrent histories."
  in
  let run () =
    let tree = Mm_verif.Tree.create ~arity:2 ~depth:3 in
    let ok = ref true in
    let report name r =
      Printf.printf "  %-42s %s\n%!" name (Mm_verif.Checker.describe r);
      if not (Mm_verif.Checker.is_verified r) then ok := false
    in
    Printf.printf "P1: CortenMM_rw locking protocol\n";
    List.iter
      (fun (name, targets) ->
        report name (Mm_verif.Rw_model.check ~tree ~targets ()))
      [
        ("overlapping targets (1,3)", [| 1; 3 |]);
        ("same target (4,4)", [| 4; 4 |]);
        ("disjoint subtrees (1,2)", [| 1; 2 |]);
        ("root vs leaf (0,6)", [| 0; 6 |]);
        ("three cores (1,4,2)", [| 1; 4; 2 |]);
      ];
    Printf.printf "P1: CortenMM_rw, faithful Fig 5 variant (trade window)\n";
    List.iter
      (fun (name, targets) ->
        report name
          (Mm_verif.Rw_model.check ~trade_window:true ~stepwise_unlock:true
             ~tree ~targets ()))
      [
        ("overlapping targets (1,3)", [| 1; 3 |]);
        ("same target (4,4)", [| 4; 4 |]);
        ("three cores (1,4,2)", [| 1; 4; 2 |]);
      ];
    Printf.printf "P1: refinement Atomic Tree Spec -> Atomic Spec\n";
    List.iter
      (fun targets ->
        let r, errs = Mm_verif.Rw_model.check_refinement ~tree ~targets () in
        Printf.printf "  targets %s: %s, %d refinement errors\n%!"
          (String.concat ","
             (Array.to_list (Array.map string_of_int targets)))
          (Mm_verif.Checker.describe r) (List.length errs);
        if (not (Mm_verif.Checker.is_verified r)) || errs <> [] then ok := false)
      [ [| 1; 3 |]; [| 1; 2 |]; [| 0; 6 |] ];
    Printf.printf "P1: CortenMM_adv locking protocol (with RCU + stale)\n";
    List.iter
      (fun (name, targets, actions) ->
        report name (Mm_verif.Adv_model.check ~tree ~targets ~actions ()))
      [
        ("disjoint ops", [| 1; 2 |], [| Mm_verif.Adv_model.Op; Mm_verif.Adv_model.Op |]);
        ("overlapping ops", [| 1; 3 |], [| Mm_verif.Adv_model.Op; Mm_verif.Adv_model.Op |]);
        ( "Fig 7 unmap race",
          [| 1; 3 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] );
        ( "double remove",
          [| 1; 2 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Remove 5 |] );
        ( "3 cores, remove + two lockers",
          [| 1; 3; 2 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op;
             Mm_verif.Adv_model.Op |] );
      ];
    Printf.printf "Seeded bugs (the checker must catch these)\n";
    let expect_violation name r =
      match r.Mm_verif.Checker.outcome with
      | Mm_verif.Checker.Invariant_violation { message; _ } ->
        Printf.printf "  %-42s caught: %s\n%!" name message
      | _ ->
        Printf.printf "  %-42s NOT CAUGHT\n%!" name;
        ok := false
    in
    expect_violation "rw without path read locks"
      (Mm_verif.Rw_model.check ~skip_read_locks:true ~tree ~targets:[| 1; 3 |] ());
    expect_violation "adv without the stale check"
      (Mm_verif.Adv_model.check ~no_stale_check:true ~tree ~targets:[| 1; 3 |]
         ~actions:[| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] ());
    expect_violation "adv without RCU grace periods"
      (Mm_verif.Adv_model.check ~no_rcu:true ~tree ~targets:[| 1; 3 |]
         ~actions:[| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] ());
    Printf.printf "P2: functional correctness of the cursor operations\n";
    List.iter
      (fun (name, cfg) ->
        let r = Mm_verif.Funcheck.exhaustive ~cfg ~depth:2 () in
        Printf.printf
          "  %-42s %d sequences, %d checks, %d failures\n%!" name
          r.Mm_verif.Funcheck.sequences r.Mm_verif.Funcheck.checks
          (List.length r.Mm_verif.Funcheck.failures);
        if r.Mm_verif.Funcheck.failures <> [] then ok := false)
      [ ("adv, all depth-2 sequences", Cortenmm.Config.adv);
        ("rw, all depth-2 sequences", Cortenmm.Config.rw) ];
    Printf.printf "Atomicity: linearizability of concurrent histories\n";
    List.iter
      (fun seed ->
        let r =
          Mm_verif.Funcheck.lin_check ~cfg:Cortenmm.Config.adv ~ncpus:4
            ~ops_per_thread:15 ~seed
        in
        Printf.printf "  seed %-4d %d ops: %s\n%!" seed
          r.Mm_verif.Funcheck.total_ops
          (if r.Mm_verif.Funcheck.matched then "linearizes" else "MISMATCH");
        if not r.Mm_verif.Funcheck.matched then ok := false)
      [ 1; 42; 1234 ];
    if !ok then Printf.printf "\nAll verification checks passed.\n"
    else begin
      Printf.printf "\nVERIFICATION FAILURES PRESENT.\n";
      exit 1
    end
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ const ())

(* --systems NAME,NAME...: subset of the registered systems, resolved
   through the result-returning registry lookup so a typo prints the
   valid-name listing and exits. *)
let systems_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "systems" ] ~docv:"NAMES"
        ~doc:"Comma-separated subset of the registered systems to include \
              (default: all).")

let resolve_systems = function
  | None -> Mm_workloads.System.Registry.all
  | Some s ->
    List.map
      (fun name ->
        match Mm_workloads.System.Registry.find name with
        | Ok e -> e
        | Error msg ->
          Printf.eprintf "mmrepro: %s\n" msg;
          exit 1)
      (String.split_on_char ',' s)

let sweep_cmd =
  let doc = "Run one microbenchmark over a core sweep." in
  let bench =
    let bench_conv =
      Arg.enum
        (List.map
           (fun b -> (Mm_workloads.Micro.bench_name b, b))
           Mm_workloads.Micro.all_benches)
    in
    Arg.(
      value
      & opt bench_conv Mm_workloads.Micro.Pf
      & info [ "bench" ] ~doc:"Benchmark.")
  in
  let high =
    Arg.(value & flag & info [ "high" ] ~doc:"High-contention variant.")
  in
  let run bench high systems trace report =
    with_obs ~trace ~report @@ fun () ->
    let contention =
      if high then Mm_workloads.Micro.High else Mm_workloads.Micro.Low
    in
    let systems =
      List.map
        (fun e -> e.Mm_workloads.System.Registry.r_kind)
        (resolve_systems systems)
    in
    let header =
      "cores" :: List.map Mm_workloads.System.kind_name systems
    in
    let rows =
      List.map
        (fun ncpus ->
          string_of_int ncpus
          :: List.map
               (fun kind ->
                 match
                   Mm_workloads.Micro.run ~kind ~ncpus ~bench ~contention
                     ~iters:50 ()
                 with
                 | Some r ->
                   Mm_util.Tablefmt.fmt_si r.Mm_workloads.Runner.ops_per_sec
                 | None -> "n/a")
               systems)
        [ 1; 2; 4; 8; 16; 32; 64 ]
    in
    Mm_util.Tablefmt.print ~header rows
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ bench $ high $ systems_arg $ obs_trace $ obs_report)

let trace_cmd =
  let doc =
    "Generate a synthetic MM operation trace, or replay one on any of the \
     evaluated systems."
  in
  let mode =
    Arg.(
      required
      & pos 0 (some (enum [ ("gen", `Gen); ("replay", `Replay) ])) None
      & info [] ~docv:"gen|replay")
  in
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let profile = profile_arg "Workload profile for gen." in
  let system =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun e ->
                  ( e.Mm_workloads.System.Registry.r_name,
                    e.Mm_workloads.System.Registry.r_kind ))
                Mm_workloads.System.Registry.all))
          (Mm_workloads.System.Corten Cortenmm.Config.adv)
      & info [ "system" ] ~doc:"System to replay on.")
  in
  let run mode path profile ncpus ops seed system =
    match mode with
    | `Gen ->
      let t = Mm_workloads.Trace.generate ~profile ~ncpus ~ops_per_cpu:ops ~seed in
      Mm_workloads.Trace.save t path;
      Printf.printf "wrote %d operations (%d cpus, profile %s) to %s\n"
        (Array.length t.Mm_workloads.Trace.entries)
        t.Mm_workloads.Trace.ncpus
        (Mm_workloads.Trace.profile_name profile)
        path
    | `Replay ->
      let t = Mm_workloads.Trace.load path in
      let s = Mm_workloads.Trace.replay ~kind:system t in
      Printf.printf
        "replayed %d ops on %s (%d cpus): %s ops/s\n\
         mmaps %d, munmaps %d, touches %d, forks %d, denied %d\n"
        s.Mm_workloads.Trace.result.Mm_workloads.Runner.ops
        (Mm_workloads.System.kind_name system)
        t.Mm_workloads.Trace.ncpus
        (Mm_util.Tablefmt.fmt_si
           s.Mm_workloads.Trace.result.Mm_workloads.Runner.ops_per_sec)
        s.Mm_workloads.Trace.mmaps s.Mm_workloads.Trace.munmaps
        s.Mm_workloads.Trace.touches s.Mm_workloads.Trace.forks
        s.Mm_workloads.Trace.faults_denied
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ mode $ path $ profile $ cpus_arg 4 $ ops_arg 200 $ seed_arg
      $ system)

let oracle_cmd =
  let doc =
    "Replay one trace on every registered backend and compare the observable \
     state (per-page mappings, error outcomes, memory statistics). Exits \
     non-zero on the first divergence, with the offending operation index."
  in
  let path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Saved trace to check; generated from the profile flags when \
                omitted.")
  in
  let profile = profile_arg "Workload profile when generating." in
  let every =
    count [ "every" ] ~default:16 "Snapshot-compare cadence in operations."
  in
  let cow_mutant =
    Arg.(
      value & flag
      & info [ "cow-mutant" ]
          ~doc:
            "Arm the injected CortenMM fork bug (clone_for_fork skips the \
             parent-side write-protect); the oracle must then report a \
             divergence at the first child read observing a leaked parent \
             store.")
  in
  let reclaim_mutant =
    Arg.(
      value & flag
      & info [ "reclaim-mutant" ]
          ~doc:
            "Arm the injected pager bug (put_pages skips the dirty \
             writeback, losing the page's data token at page-out); the \
             oracle must then report a divergence at the first read \
             observing the lost token.")
  in
  let run path profile ncpus ops seed every cow_mutant reclaim_mutant jobs
      systems =
    let trace =
      match path with
      | Some p -> Mm_workloads.Trace.load p
      | None ->
        Mm_workloads.Trace.generate ~profile ~ncpus ~ops_per_cpu:ops ~seed
    in
    let entries = resolve_systems systems in
    let backends =
      List.map (fun e -> e.Mm_workloads.System.Registry.r_backend) entries
    in
    match
      Mm_workloads.Diff.run ~check_every:every ~jobs ~cow_mutant
        ~reclaim_mutant ~backends trace
    with
    | Ok n ->
      Printf.printf "oracle: %d ops, %d backends, no divergence\n" n
        (List.length entries)
    | Error d ->
      Printf.printf "oracle: DIVERGENCE\n%s\n" (Mm_workloads.Diff.describe d);
      exit 1
  in
  Cmd.v (Cmd.info "oracle" ~doc)
    Term.(
      const run $ path $ profile $ cpus_arg 4 $ ops_arg 200 $ seed_arg $ every
      $ cow_mutant $ reclaim_mutant $ jobs_arg $ systems_arg)

let serve_cmd =
  let doc =
    "Open-loop serving mode: drive a fleet of short sessions \
     (mmap/fault/mprotect/munmap bursts on a seeded Poisson-style arrival \
     schedule) against the registered systems and report SLO-style \
     latency percentiles (p50/p99/p999) per system and TLB-shootdown \
     policy, plus the shootdown accounting (IPIs, batch flushes, worst \
     deferral stall). Deterministic: equal seeds give byte-identical \
     reports."
  in
  let sessions =
    count [ "sessions" ] ~default:100_000 "Total sessions across all CPUs."
  in
  let mix =
    Arg.(
      value & opt string "mixed"
      & info [ "mix" ]
          ~doc:
            (Printf.sprintf "Session mix: %s."
               (String.concat ", " Mm_serve.Mix.names)))
  in
  let policies_flag =
    Arg.(
      value & opt string "immediate,batched"
      & info [ "policies" ]
          ~doc:
            (Printf.sprintf
               "Comma-separated TLB shootdown policies to compare: %s."
               (String.concat ", " Mm_serve.Serve.policy_names)))
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report here (BENCH_serve.json).")
  in
  let run sessions ncpus seed mix policies json jobs systems =
    let die msg =
      Printf.eprintf "mmrepro: %s\n" msg;
      exit 1
    in
    let mix =
      match Mm_serve.Mix.find mix with Ok m -> m | Error msg -> die msg
    in
    let policies =
      List.map
        (fun name ->
          match Mm_serve.Serve.find_policy name with
          | Ok p -> (name, p)
          | Error msg -> die msg)
        (String.split_on_char ',' policies)
    in
    let systems = resolve_systems systems in
    let reports =
      Mm_serve.Serve.run_matrix ~jobs ~systems ~mix ~policies ~ncpus
        ~sessions ~seed ()
    in
    Printf.printf
      "serve: %d sessions, %d cpus, mix %s, seed %d (latencies in cycles)\n\n"
      sessions ncpus mix.Mm_serve.Mix.name seed;
    print_string (Mm_serve.Serve.table reports);
    match json with
    | None -> ()
    | Some path ->
      Mm_serve.Serve.write_json ~path ~mix ~ncpus ~sessions ~seed reports;
      Printf.printf "\nwrote serve report to %s\n" path
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ sessions $ cpus_arg 8 $ seed_arg $ mix $ policies_flag $ json
      $ jobs_arg $ systems_arg)

let schedcheck_cmd =
  let doc =
    "Explore schedules of the concurrent core: run small concurrent cursor \
     workloads under seeded-random tie-break policies, checking protocol \
     invariants live (mutual exclusion, transaction exclusivity, RCU grace \
     periods, deadlock-freedom) and the final address-space state against a \
     sequential reference replay. On violation, shrinks the schedule and \
     writes a minimal deterministic replay file. Exits non-zero on \
     violation."
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("adv", `Adv); ("rw", `Rw); ("both", `Both) ]) `Both
      & info [ "protocol" ] ~doc:"Locking protocol to check: adv, rw, both.")
  in
  let seeds =
    count [ "seeds" ] ~default:25 "Schedule seeds to try per protocol."
  in
  let seed0 =
    Arg.(value & opt int 1 & info [ "seed0" ] ~doc:"First schedule seed.")
  in
  let wseed =
    Arg.(value & opt int 42 & info [ "workload-seed" ] ~doc:"Workload seed.")
  in
  let amplitude =
    count [ "amplitude" ] ~default:8 "Tie-break key range (permutation width)."
  in
  let mutant =
    Arg.(
      value & opt string "none"
      & info [ "mutant" ]
          ~doc:
            "Inject a synchronization bug the harness must catch: none, \
             rw-skip-handoff, rcu-no-gp.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the minimized schedule of a violation here.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a saved schedule file instead of exploring (all other \
             workload flags are taken from the file).")
  in
  let run protocol cpus ops seeds seed0 wseed amplitude mutant out replay jobs
      =
    let module S = Mm_schedcheck.Schedcheck in
    let module Sched_file = Mm_schedcheck.Schedule in
    let die msg =
      Printf.eprintf "mmrepro: %s\n" msg;
      exit 2
    in
    match replay with
    | Some path -> (
      let s =
        match Sched_file.load path with Ok s -> s | Error msg -> die msg
      in
      match S.replay_schedule s with
      | Error msg -> die msg
      | Ok [] ->
        Printf.printf
          "schedcheck: replay %s (%s, %d cpus, %d ops/cpu, mutant %s): clean\n"
          path s.Sched_file.protocol s.Sched_file.cpus s.Sched_file.ops
          s.Sched_file.mutant
      | Ok violations ->
        Printf.printf
          "schedcheck: replay %s (%s, %d cpus, %d ops/cpu, mutant %s): %d \
           violation(s)\n"
          path s.Sched_file.protocol s.Sched_file.cpus s.Sched_file.ops
          s.Sched_file.mutant (List.length violations);
        List.iter (fun v -> Printf.printf "  %s\n" v) violations;
        exit 1)
    | None ->
      let mutant =
        match S.mutant_of_string mutant with
        | Ok m -> m
        | Error msg -> die msg
      in
      let protocols =
        match protocol with
        | `Adv -> [ Cortenmm.Config.adv ]
        | `Rw -> [ Cortenmm.Config.rw ]
        | `Both -> [ Cortenmm.Config.rw; Cortenmm.Config.adv ]
      in
      let violated = ref false in
      List.iter
        (fun protocol ->
          let cfg =
            {
              S.protocol;
              cpus;
              ops_per_cpu = ops;
              workload_seed = wseed;
              mutant;
            }
          in
          match S.explore ~amplitude ~seed0 ~jobs ~seeds cfg with
          | S.Clean { seeds } ->
            Printf.printf
              "schedcheck: %s: %d seeds clean (%d cpus, %d ops/cpu, mutant \
               %s)\n"
              (Cortenmm.Config.name protocol)
              seeds cpus ops (S.mutant_name mutant)
          | S.Violation { sched_seed; keys; violations; shrink_runs } ->
            violated := true;
            Printf.printf
              "schedcheck: %s: VIOLATION at seed %d (shrunk to %d keys in \
               %d replays)\n"
              (Cortenmm.Config.name protocol)
              sched_seed (Array.length keys) shrink_runs;
            List.iter (fun v -> Printf.printf "  %s\n" v) violations;
            match out with
            | None -> ()
            | Some path ->
              Sched_file.save (S.schedule_of cfg keys) path;
              Printf.printf "  minimal schedule written to %s\n" path)
        protocols;
      if !violated then exit 1
  in
  Cmd.v (Cmd.info "schedcheck" ~doc)
    Term.(
      const run $ protocol $ cpus_arg 4 $ ops_arg 12 $ seeds $ seed0 $ wseed
      $ amplitude $ mutant $ out $ replay $ jobs_arg)

let () =
  let doc = "CortenMM reproduction driver" in
  let info = Cmd.info "mmrepro" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; bechamel_cmd; verify_cmd; sweep_cmd; trace_cmd;
            oracle_cmd; serve_cmd; schedcheck_cmd;
          ]))
