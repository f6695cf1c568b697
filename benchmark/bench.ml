(* The runner: prepares a workload, runs one warm-up round whose outputs
   become the reference, then repeats rounds until the time budget is
   spent — in traced mode alternating untraced and traced rounds — and
   turns the rounds into metrics. Every round must reproduce the
   reference's simulated outputs: that is the determinism check, and for
   traced rounds the proof that tracing does not perturb the simulation. *)

module Stats = Mm_util.Stats

type outcome = {
  sim_digest : string;  (** of the reference round's simulated outputs *)
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let now = Unix.gettimeofday
let median xs = Stats.median (Array.of_list xs)

(* The mean of [xs] without their lowest and highest fifth. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a / 5 in
  Stats.mean (Array.sub a k (Array.length a - (2 * k)))

(* -- Calibration --

   Host time is CPU time (user + system) of the process doing the work,
   so time spent waiting for a CPU that other processes hold does not
   count. That is not enough on a shared machine: the 2-vCPU guest the
   benchmark was built on changes speed for minutes at a time, and the
   same round takes from 1.0x to 1.8x its usual time, in CPU time as
   well as wall time, with no steal time visible in the guest. A run
   reads whichever state it landed in, and ten runs in a row spread by up
   to 40% (IQR/median). So host time is calibrated. Before every round,
   and once after the last, a fresh child process runs [probe], a fixed
   computation of the kind the rounds spend their time in (building and
   collecting a heap of small blocks, filling and randomly reading a
   large fresh array), and its CPU time is taken. Each round's time is
   divided by the mean of the probes on either side of it, and [host_s]
   is the trimmed mean of these ratios times [reference_probe_s], the
   probe's time when the host runs at its usual speed: host seconds at
   that speed. The probe is the benchmark's own code, so a change to the
   simulator does not move it, and running it in a fresh process keeps
   the workload's heap out of it. Among the probes tried, an integer loop
   did not follow the slowdowns at all, and hashing and sorting small
   tables followed them less closely. *)
let reference_probe_s = 0.07

type tree = Leaf | Node of tree * tree

let probe () =
  let rec build d = if d = 0 then Leaf else Node (build (d - 1), build (d - 1)) in
  let trees = List.init 8 (fun _ -> build 16) in
  ignore (Sys.opaque_identity trees);
  Gc.full_major ();
  let a = Array.make (4 * 1024 * 1024) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- i
  done;
  let x = ref 1 and sum = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    sum := !sum + a.(!x land (Array.length a - 1))
  done;
  ignore (Sys.opaque_identity !sum)

(* Runs the child process [argv] to its end and returns its CPU time. *)
let child_cpu argv =
  let children_cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c0 = children_cpu () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> children_cpu () -. c0
  | _ -> failwith (argv.(0) ^ ": a child process failed")

(* [setup_s] is the smallest CPU time of child processes [argv] that
   start, prepare the workload's inputs and exit: process start, runtime
   and library initialisation, and input generation. A child process is
   timed, not a call, so that work moved into module initialisation
   shows as set-up too. The smallest of the run's hundreds of children
   reads the host at its usual speed; it moved less between ten-run sets
   than the median did, and less than set-up time divided by the probe.

   [time_setup argv ~seconds] runs such children one after another for
   at least [seconds] and returns their CPU times. The runner calls it
   for [setup_slice_s] before every round, so the children sample the
   host over the whole run, as the rounds do. *)
let setup_slice_s = 0.1

let time_setup argv ~seconds =
  let stop = now () +. seconds in
  let rec go times =
    if times <> [] && now () >= stop then times else go (child_cpu argv :: times)
  in
  go []

(* One round, with the wrapper totals it left behind folded into its
   signature (they are simulated outputs too). *)
type sample = {
  round : Workload.round;
  seconds : float;  (** CPU time *)
  probe_s : float;  (** mean of the probes either side; set by [run] *)
  calls : int array;
  errors : int array;
  adv_calls : int array;
  adv_cycles : int array;
  signature : string;
}

let run_round round =
  Wrap.reset ();
  let t0 = Workload.cpu_s () in
  let r = round () in
  let seconds = Workload.cpu_s () -. t0 in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let wrapper =
    String.concat ";"
      [ ints Wrap.calls; ints Wrap.errors; ints Wrap.adv_calls; ints Wrap.adv_cycles ]
  in
  {
    round = r;
    seconds;
    probe_s = nan;
    calls = Array.copy Wrap.calls;
    errors = Array.copy Wrap.errors;
    adv_calls = Array.copy Wrap.adv_calls;
    adv_cycles = Array.copy Wrap.adv_cycles;
    signature = Digest.to_hex (Digest.string (r.Workload.digest ^ "\n" ^ wrapper));
  }

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let sys_stats (s : sample) name = List.assoc name s.round.Workload.systems

(* The trimmed mean over [samples] of a host time [f s], calibrated: in
   host seconds at the speed at which [probe] takes [reference_probe_s].
   Over ten-run sets the trimmed mean spread less than the median. *)
let calibrated f samples =
  reference_probe_s *. trimmed_mean (List.map (fun s -> f s /. s.probe_s) samples)

let end_to_end ~setup_s ~peak_rss ~(reference : sample) ~plain =
  let host_s = calibrated (fun s -> s.seconds) plain in
  let adv = sys_stats reference "cortenmm-adv" in
  [
    ("host_s", host_s, "s");
    ("sim_ops_per_host_s", float_of_int reference.round.attempted /. host_s, "ops/s");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss, "MiB");
    ( "adv_sim_ops_per_s",
      Stats.ops_per_second ~ops:adv.ops ~cycles:adv.cycles,
      "ops/s" );
  ]

let per_layer ~(reference : sample) ~(adv_pct : int * int * int) ~plain ~traced
    =
  let f = float_of_int in
  let backend =
    List.concat_map
      (fun name ->
        let r = sys_stats reference name in
        [
          ( "backend." ^ name ^ ".host_s",
            calibrated (fun s -> (sys_stats s name).host_s) plain,
            "s" );
          ( "backend." ^ name ^ ".sim_ops_per_s",
            Stats.ops_per_second ~ops:r.ops ~cycles:r.cycles,
            "ops/s" );
          ("backend." ^ name ^ ".sess_p99_cycles", f r.sess_p99, "cycles");
        ])
      Mm_workloads.System.Registry.names
  in
  let ops =
    List.concat
      (List.mapi
         (fun k kind ->
           let n = reference.adv_calls.(k) in
           [
             ("op." ^ kind ^ ".calls", f reference.calls.(k), "count");
             ("op." ^ kind ^ ".errors", f reference.errors.(k), "count");
             ( "op." ^ kind ^ ".adv_cycles_mean",
               (if n = 0 then 0.0 else f reference.adv_cycles.(k) /. f n),
               "cycles" );
           ])
         (Array.to_list Wrap.kinds))
  in
  let adv =
    let p50, p99, n = adv_pct in
    let sess g =
      match reference.round.adv_sess with Some s -> f (g s) | None -> 0.0
    in
    Mm_serve.Serve.
      [
        ("adv_op_p50_cycles", f p50, "cycles");
        ("adv_op_p99_cycles", f p99, "cycles");
        ("adv_op_samples", f n, "count");
        ("adv_sess_p50_cycles", sess (fun s -> s.s_p50), "cycles");
        ("adv_sess_p99_cycles", sess (fun s -> s.s_p99), "cycles");
        ("adv_sess_samples", sess (fun s -> s.s_count), "count");
      ]
  in
  (* Sampler shares, summed over every traced round. *)
  let probes = List.map snd traced in
  let sum g = List.fold_left (fun a (p : Probe.round) -> a + g p) 0 probes in
  let total =
    sum (fun p -> p.engine_self + p.driver_self + Array.fold_left ( + ) 0 p.op_self)
  in
  let pct n = if total = 0 then 0.0 else 100.0 *. f n /. f total in
  let self =
    List.mapi
      (fun k kind -> ("op." ^ kind ^ ".self_pct", pct (sum (fun p -> p.op_self.(k))), "%"))
      (Array.to_list Wrap.kinds)
    @ [
        ("engine.self_pct", pct (sum (fun p -> p.engine_self)), "%");
        ("driver.self_pct", pct (sum (fun p -> p.driver_self)), "%");
        ("obs.samples", f total, "count");
        ( "obs.trace_overhead",
          calibrated (fun s -> s.seconds) (List.map fst traced)
          /. calibrated (fun s -> s.seconds) plain,
          "ratio" );
        ("calib.probe_s", median (List.map (fun s -> s.probe_s) plain), "s");
        ("calib.raw_host_s", median (List.map (fun s -> s.seconds) plain), "s");
      ]
  in
  let cells =
    [
      ("experiments.cells", f (List.length reference.round.cell_s), "count");
      ( "experiments.cell_s_max",
        calibrated (fun s -> List.fold_left max 0.0 s.round.Workload.cell_s) plain,
        "s" );
    ]
  in
  let gc =
    let med g = median (List.map g probes) in
    let delta g = med (fun (p : Probe.round) -> g (snd p.gc) -. g (fst p.gc)) in
    [
      ("gc.minor_words", delta (fun s -> s.Gc.minor_words), "words");
      ("gc.major_words", delta (fun s -> s.Gc.major_words), "words");
      ( "gc.major_collections",
        delta (fun s -> f s.Gc.major_collections),
        "count" );
      ("gc.pause_s", med (fun p -> p.gc_pause_s), "s");
      ("gc.lost_events", f (sum (fun p -> p.gc_lost_events)), "count");
    ]
  in
  (* Simulated counters are identical in every traced round. *)
  let p = List.hd probes in
  let counter n = f (Option.value ~default:0 (List.assoc_opt n p.counters)) in
  let hist n g =
    match List.assoc_opt n p.hists with Some h -> f (g h) | None -> 0.0
  in
  let locks g = f (List.fold_left (fun a e -> a + g e) 0 p.locks) in
  let monitor =
    Array.to_list
      (Array.mapi (fun i n -> (n, f p.monitor.(i), "count")) Probe.monitor_names)
  in
  let module M = Mm_obs.Metrics in
  let module C = Mm_obs.Contention in
  let count n v = (n, v, "count") and cycles n v = (n, v, "cycles") in
  let sim =
    [
      count "sim.lock_acquires" (locks (fun e -> e.C.acquisitions));
      count "sim.lock_contended" (locks (fun e -> e.C.contended));
      cycles "sim.lock_wait_cycles" (locks (fun e -> e.C.wait_cycles));
      cycles "sim.lock_hold_cycles" (locks (fun e -> e.C.hold_cycles));
      count "sim.rcu_deferred" (counter "rcu.deferred");
      count "sim.rcu_gp_callbacks" (counter "rcu.gp_callbacks");
      count "tlb.shootdowns" (counter "tlb.shootdowns");
      count "tlb.remote_targets" (hist "tlb.shootdown_fanout" M.total);
      count "tlb.ipis" (f reference.round.ipis);
      count "tlb.batch_flushes" (counter "tlb.batch_flushes");
      cycles "tlb.worst_stall_cycles" (hist "tlb.batch_stall_cycles" M.max_value);
      count "phys.frame_allocs" (counter "phys.frame_allocs");
      count "phys.frame_frees" (counter "phys.frame_frees");
      count "phys.buddy_splits" (counter "buddy.splits");
      count "phys.buddy_merges" (counter "buddy.merges");
      count "core.cursor_locks" (hist "cursor.lock_cycles" M.samples);
      cycles "core.cursor_lock_cycles" (hist "cursor.lock_cycles" M.total);
      count "core.faults" (hist "fault.cycles" M.samples);
      cycles "core.fault_cycles" (hist "fault.cycles" M.total);
      count "core.stale_retries" (counter "addr_space.stale_retries");
      count "core.pt_splits" (counter "addr_space.pt_splits");
      count "core.pt_pages_freed" (counter "addr_space.pt_pages_freed");
    ]
  in
  backend @ ops @ adv @ self @ cells @ gc @ sim @ monitor

(* [setup ~seconds] runs set-up children, as [time_setup] does; only the
   end-to-end metrics use it. [calibrate ()] returns the CPU time of a
   child process that runs [probe]. *)
let run (w : Workload.t) ~seed ~seconds ~trace ~setup ~calibrate =
  let setup_times = ref [] in
  (* Before every round, outside its timed and traced window: a slice of
     set-up children, the calibration probe, then a full collection. A
     workload's peak heap depends on where the GC's major cycle stands
     when the round starts: a few words allocated differently before it
     moved serve-mixed's peak RSS by up to 8%. *)
  let before_round () =
    if not trace then setup_times := setup ~seconds:setup_slice_s @ !setup_times;
    let probe_s = calibrate () in
    Gc.compact ();
    probe_s
  in
  let round = w.prepare ~seed in
  (* The warm-up round counts against the budget, and no round starts
     that the last one says would end after it, so that a run takes
     about [seconds] whatever the workload's round length. *)
  let t0 = now () in
  let deadline = t0 +. seconds in
  ignore (before_round ());
  let reference = run_round round in
  let last = ref (now () -. t0) in
  (* Taken after exactly one round, so it does not grow with the number
     of rounds a fast host fits into the budget. *)
  let peak_rss = peak_rss_mb () in
  let adv_pct =
    (Wrap.adv_percentile 0.5, Wrap.adv_percentile 0.99, !Wrap.adv_n)
  in
  (* Measured rounds, newest first, each with the probe taken before it
     and, for a traced round, what the instruments saw. *)
  let log = ref [] and n_plain = ref 0 and n_traced = ref 0 in
  while
    now () +. !last < deadline || !n_plain = 0 || (trace && !n_traced = 0)
  do
    let t = now () in
    let probe_s = before_round () in
    (if trace && !n_traced < !n_plain then begin
       let s, p = Probe.traced (fun () -> run_round round) in
       log := (probe_s, s, Some p) :: !log;
       incr n_traced
     end
     else begin
       log := (probe_s, run_round round, None) :: !log;
       incr n_plain
     end);
    last := now () -. t
  done;
  (* Each round's probe is the mean of the ones before and after it. *)
  let _, measured =
    List.fold_left
      (fun (after, acc) (before, s, p) ->
        (before, ({ s with probe_s = (before +. after) /. 2.0 }, p) :: acc))
      (calibrate (), []) !log
  in
  let plain =
    List.filter_map (fun (s, p) -> if Option.is_none p then Some s else None) measured
  in
  let traced = List.filter_map (fun (s, p) -> Option.map (fun p -> (s, p)) p) measured in
  let rounds = reference :: plain @ List.map fst traced in
  let problems =
    List.filter_map
      (fun (s : sample) ->
        if s.signature <> reference.signature then
          Some "a round's simulated outputs differ from the reference round's"
        else if s.round.mismatches > 0 then
          Some
            (Printf.sprintf "%d reads returned a value other than the last written"
               s.round.mismatches)
        else None)
      rounds
  in
  List.iter prerr_endline (List.sort_uniq compare problems);
  {
    sim_digest = reference.signature;
    correct = problems = [];
    attempted = List.fold_left (fun a s -> a + s.round.Workload.attempted) 0 rounds;
    failed = List.fold_left (fun a s -> a + s.round.Workload.failed) 0 rounds;
    metrics =
      (if trace then per_layer ~reference ~adv_pct ~plain ~traced
       else
         end_to_end ~setup_s:(List.fold_left Float.min infinity !setup_times)
           ~peak_rss ~reference ~plain);
  }
