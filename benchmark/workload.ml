(* The benchmark's four workloads. Each one is a [prepare] step (make the
   inputs from the seed: traces, experiment plans, the list of worlds)
   that returns a round: a fixed, deterministic unit of work the runner
   repeats and times. A round builds its own simulated machines, so
   machine bring-up is part of the round's host time. Every round of one
   prepared workload does exactly the same simulated work, so rounds must
   agree on their [digest]. *)

module System = Mm_workloads.System
module Runner = Mm_workloads.Runner
module Backend = Mm_workloads.Backend
module Wtrace = Mm_workloads.Trace
module Serve = Mm_serve.Serve
module Mix = Mm_serve.Mix
module Registry = Mm_experiments.Registry
module Plan = Mm_experiments.Plan
module Json = Mm_obs.Json

type system = string * Backend.b

let registry : system list =
  List.map
    (fun (e : System.Registry.entry) -> (e.r_name, e.r_backend))
    System.Registry.all

(* Per-system totals of one round. *)
type sys_stats = {
  mutable ops : int;
  mutable cycles : int;  (** simulated measured intervals *)
  mutable host_s : float;
  mutable sess_p99 : int;  (** immediate-policy session p99 (serve) *)
}

type round = {
  digest : string;  (** the simulated outputs *)
  attempted : int;  (** simulated ops attempted *)
  failed : int;  (** ops that returned an error or ran in a raising world *)
  mismatches : int;  (** value-model violations *)
  systems : (string * sys_stats) list;  (** registry systems, in order *)
  cell_s : float list;  (** host seconds of each world *)
  adv_sess : Serve.phase_stats option;
  ipis : int;  (** TLB shootdown IPIs; not observable on [suite] *)
}

type t = {
  name : string;
  prepare : seed:int -> unit -> round;
}

let empty_round () =
  {
    digest = "";
    attempted = 0;
    failed = 0;
    mismatches = 0;
    systems =
      List.map
        (fun n -> (n, { ops = 0; cycles = 0; host_s = 0.0; sess_p99 = 0 }))
        System.Registry.names;
    cell_s = [];
    adv_sess = None;
    ipis = 0;
  }

(* Charge one world's simulated ops, cycles and host time to a system. *)
let charge r name ~ops ~cycles ~dt =
  Option.iter
    (fun s ->
      s.ops <- s.ops + ops;
      s.cycles <- s.cycles + cycles;
      s.host_s <- s.host_s +. dt)
    (List.assoc_opt name r.systems)

(* The benchmark's host clock: CPU seconds (user + system) this process
   has used, so waits for a CPU held by other processes do not count. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run one simulated world: time it, mark the host as inside a world for
   the sampler, and catch what it raises so a failing world is counted
   instead of ending the run. *)
let world f =
  Probe.arm_monitor ();
  Wrap.in_world := true;
  let t0 = cpu_s () in
  let r = try Ok (f ()) with e -> Error e in
  let dt = cpu_s () -. t0 in
  Wrap.in_world := false;
  Probe.poll_gc ();
  (r, dt)

(* A world of wrapped backends, from a fresh world state. Its attempted
   ops are [ops v] when it returns [v]; its failures are the wrapper's
   error results, or, if it raised, every call it made (at least one). *)
let counted_world r ~name ~ops f =
  Runner.reset_world_state ();
  let calls0 = Wrap.total_calls () and errors0 = Wrap.total_errors () in
  let res, dt = world f in
  let attempted, failed =
    match res with
    | Ok v -> (ops v, Wrap.total_errors () - errors0)
    | Error e ->
      Printf.eprintf "%s: world raised %s\n%!" name (Printexc.to_string e);
      let n = max 1 (Wrap.total_calls () - calls0) in
      (n, n)
  in
  let r =
    {
      r with
      attempted = r.attempted + attempted;
      failed = r.failed + failed;
      cell_s = dt :: r.cell_s;
    }
  in
  (r, res, dt)

(* -- serve-mixed / fork-fleet: open-loop session fleets (Serve.run) -- *)

(* Serve.run draws every session from the seed inside its world, so the
   only input to prepare is the list of (system, policy) worlds. *)
let serve ~mix ~policies ~ncpus ~sessions ?(systems = registry) () ~seed =
  let cells = List.concat_map (fun s -> List.map (fun p -> (s, p)) policies) systems in
  fun () ->
    let r, reports =
      List.fold_left
        (fun (r, reports) (((name, b) : system), (policy_name, policy)) ->
          let r, res, dt =
            counted_world r ~name ~ops:(fun rep -> rep.Serve.r_ops) (fun () ->
                Serve.run ~backend:(Wrap.wrap b) ~mix ~policy_name ~policy
                  ~ncpus ~sessions ~seed ())
          in
          match res with
          | Error _ -> (r, reports)
          | Ok rep ->
            charge r name ~ops:rep.r_ops ~cycles:rep.r_cycles ~dt;
            let immediate = policy_name = "immediate" in
            if immediate then
              Option.iter
                (fun s -> s.sess_p99 <- rep.r_session.s_p99)
                (List.assoc_opt name r.systems);
            let r =
              if immediate && name = "cortenmm-adv" then
                { r with adv_sess = Some rep.r_session }
              else r
            in
            ({ r with ipis = r.ipis + rep.r_ipis }, rep :: reports))
        (empty_round (), []) cells
    in
    {
      r with
      digest =
        Json.to_string
          (Serve.report_json ~mix ~ncpus ~sessions ~seed (List.rev reports))
        ^ Printf.sprintf " failed=%d" r.failed;
    }

let serve_mixed ?(sessions = 5_000) ?systems () =
  serve ~mix:Mix.mixed ~policies:Serve.policies ~ncpus:8 ~sessions ?systems ()

let fork_fleet ?(sessions = 1_000) ?systems () =
  serve ~mix:Mix.fork_fleet
    ~policies:[ ("immediate", Mm_tlb.Tlb.Immediate) ]
    ~ncpus:8 ~sessions ?systems ()

(* -- reclaim: value-checked replays of the Reclaim trace profile -- *)

(* Replays a Reclaim-profile trace on one vCPU and returns the measured
   cycles and the number of value-model violations: every read must
   return the last token written to that (region, page), or 0 if none
   was. Reclaim ops are capability-masked, as in [Trace.replay]; the
   wrapper counts the calls that fail. *)
let replay_reclaim sys (trace : Wtrace.t) =
  let ps = sys.System.page_size in
  let regions = Hashtbl.create 16 and values = Hashtbl.create 256 in
  let mismatches = ref 0 in
  let page id page f =
    match Hashtbl.find_opt regions id with
    | Some (addr, len) when page * ps < len -> f (addr + (page * ps))
    | _ -> ()
  in
  let region id f =
    Option.iter (fun (addr, len) -> ignore (f ~addr ~len)) (Hashtbl.find_opt regions id)
  in
  let reclaim = System.has_reclaim sys in
  let measure _cpu =
    Array.iter
      (fun (e : Wtrace.entry) ->
        match e.op with
        | Wtrace.T_mmap { id; len; writable } ->
          let perm = if writable then Mm_hal.Perm.rw else Mm_hal.Perm.r in
          Result.iter
            (fun addr -> Hashtbl.replace regions id (addr, len))
            (System.mmap sys ~len ~perm ())
        | Wtrace.T_write { id; page = p; value } ->
          page id p (fun vaddr ->
              if System.write_value sys ~vaddr ~value = Ok () then
                Hashtbl.replace values (id, p) value)
        | Wtrace.T_read { id; page = p } ->
          page id p (fun vaddr ->
              match System.read_value sys ~vaddr with
              | Ok v ->
                if v <> Option.value ~default:0 (Hashtbl.find_opt values (id, p))
                then incr mismatches
              | Error _ -> ())
        | Wtrace.T_mlock { id } -> if reclaim then region id (System.mlock sys)
        | Wtrace.T_munlock { id } -> if reclaim then region id (System.munlock sys)
        | Wtrace.T_pressure { pages } ->
          if reclaim then ignore (System.pressure sys ~target_pages:pages)
        | op ->
          invalid_arg
            ("reclaim replay: unexpected op " ^ Wtrace.entry_to_string { e with op }))
      trace.entries
  in
  let cycles =
    Runner.run_phases ~ncpus:1 ~prep:(fun cpu -> System.warm sys ~cpu) ~measure ()
  in
  (cycles, !mismatches)

(* The Reclaim profile makes at most six regions, sized by its first few
   draws, so one trace's paging volume swings with the seed. A round
   replays [traces] independent traces instead, which averages that
   out. *)
let reclaim ?(traces = 20) ?(ops = 5_000) ?(systems = registry)
    ?(mutant = false) () ~seed =
  let traces =
    List.init traces (fun i ->
        Wtrace.generate ~profile:Wtrace.Reclaim ~ncpus:1 ~ops_per_cpu:ops
          ~seed:(Hashtbl.hash (seed, i)))
  in
  let worlds = List.concat_map (fun s -> List.map (fun t -> (s, t)) traces) systems in
  fun () ->
    let digest = Buffer.create 4096 in
    let r =
      List.fold_left
        (fun r (((name, b) : system), (trace : Wtrace.t)) ->
          let n = Array.length trace.entries in
          let r, res, dt =
            counted_world r ~name ~ops:(fun _ -> n) (fun () ->
                if mutant then Cortenmm.Pager.set_mutant_reclaim_skip_writeback true;
                let sys = System.of_backend (Wrap.wrap b) ~ncpus:1 in
                let cycles, bad = replay_reclaim sys trace in
                (sys, cycles, bad))
          in
          match res with
          | Error e ->
            Printf.bprintf digest "%s raised %s\n" name (Printexc.to_string e);
            r
          | Ok (sys, cycles, bad) ->
            let m = System.mem_stats sys in
            Printf.bprintf digest
              "%s ops=%d cycles=%d mismatches=%d pt=%d kernel=%d resident=%d \
               peak=%d\n"
              name n cycles bad m.pt_bytes m.kernel_bytes m.resident_bytes
              m.peak_resident_bytes;
            charge r name ~ops:n ~cycles ~dt;
            {
              r with
              mismatches = r.mismatches + bad;
              ipis = r.ipis + (System.tlb_counters sys).Mm_tlb.Tlb.ipis;
            })
        (empty_round ()) worlds
    in
    { r with digest = Buffer.contents digest }

(* -- suite: experiment entries through the experiments driver -- *)

(* fig14 stops at 2 vCPUs so a round stays near 3 s: NrOS's low/unmap
   cells eagerly back a 1 GiB arena per vCPU, about 200 MiB of heap and
   0.5 s of host time each. *)
let fig14_small =
  {
    Registry.id = "fig14";
    title = "multithread microbenchmark sweeps (1-2 vCPUs)";
    body =
      Registry.Cells
        (fun () -> Mm_experiments.Fig_micro.fig14_plan ~cores:[ 1; 2 ] ());
  }

let registered id =
  match Registry.find id with Ok e -> e | Error msg -> invalid_arg msg

(* A system takes part in a cell when its name is a '/' token of the
   cell's label, e.g. "low/unmap/c2/nros". *)
let systems_of_label label =
  let toks = String.split_on_char '/' label in
  List.filter (fun n -> List.mem n toks) System.Registry.names

let suite ?(entries = [ registered "fig13"; registered "fig20"; fig14_small ])
    () ~seed:_ =
  (* Each cell is wrapped to time it and to survive a raise; the plans
     are built once, here. *)
  let sink = ref [] in
  let wrap_cell (c : Plan.cell) =
    {
      c with
      Plan.c_run =
        (fun () ->
          let res, dt = world c.Plan.c_run in
          sink := (c.Plan.c_label, res, dt) :: !sink;
          match res with Ok v -> v | Error _ -> None);
    }
  in
  let entries =
    List.map
      (fun (e : Registry.entry) ->
        match e.body with
        | Registry.Cells mk ->
          let p = mk () in
          let p = { p with Plan.cells = List.map wrap_cell p.Plan.cells } in
          { e with body = Registry.Cells (fun () -> p) }
        | Registry.Run _ -> e)
      entries
  in
  fun () ->
    sink := [];
    let tasks = Mm_experiments.Driver.run_entries ~collect:true ~jobs:1 entries in
    let r =
      List.fold_left
        (fun r (label, res, dt) ->
          let ops, cycles, failed =
            match res with
            | Ok (Some (v : Runner.result)) -> (v.ops, v.cycles, 0)
            | Ok None -> (0, 0, 0)
            | Error e ->
              Printf.eprintf "%s: world raised %s\n%!" label (Printexc.to_string e);
              (1, 0, 1)
          in
          List.iter (fun n -> charge r n ~ops ~cycles ~dt) (systems_of_label label);
          {
            r with
            attempted = r.attempted + ops;
            failed = r.failed + failed;
            cell_s = dt :: r.cell_s;
          })
        (empty_round ()) (List.rev !sink)
    in
    let digest = Buffer.create 4096 in
    List.iter
      (fun (t : Mm_experiments.Driver.task_result) ->
        Buffer.add_string digest t.t_output;
        List.iter
          (fun (l, (v : Runner.result)) ->
            Printf.bprintf digest "%s %d %d\n" l v.ops v.cycles)
          t.t_results)
      tasks;
    { r with digest = Buffer.contents digest }

let all =
  [
    { name = "suite"; prepare = suite () };
    { name = "serve-mixed"; prepare = serve_mixed () };
    { name = "fork-fleet"; prepare = fork_fleet () };
    { name = "reclaim"; prepare = reclaim () };
  ]
