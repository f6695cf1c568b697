(* Open-loop serving mode: a seeded session-fleet load generator over any
   {!Mm_workloads.Backend.S} registry entry, with SLO-style tail-latency
   reports.

   Unlike the closed-loop microbenchmarks (which issue the next operation
   only when the previous one returns), sessions here arrive on a fixed
   virtual-time schedule drawn from per-CPU exponential interarrivals:
   when the system stalls — say a synchronous TLB shootdown storm — the
   arrival clock keeps running and the backlog shows up as queueing delay
   in the session-latency tail. That is the measurement a batched
   shootdown policy is supposed to move, and what p50 alone would hide.

   Determinism: all randomness flows through per-CPU [Mm_util.Rng]
   streams derived from the run seed, latency histograms are per-run
   ({!Mm_obs.Metrics.unregistered}), and the report serializer emits
   fields in a fixed order — equal seeds give byte-identical JSON. *)

module Engine = Mm_sim.Engine
module Tlb = Mm_tlb.Tlb
module Rng = Mm_util.Rng
module Metrics = Mm_obs.Metrics
module System = Mm_workloads.System
module Backend = Mm_workloads.Backend
module Runner = Mm_workloads.Runner
module Perm = Mm_hal.Perm
module Errno = Mm_hal.Errno

(* -- Shootdown-policy registry -- *)

(* The batched window/size are picked so that a busy CPU fills a batch in
   well under the window (size-triggered coalescing) while an idle one
   still drains within one scheduling quantum of deferral. *)
let batched_default = Tlb.Batched { window = 20_000; max_batch = 32 }

let policies = [ ("immediate", Tlb.Immediate); ("batched", batched_default) ]
let policy_names = List.map fst policies

let find_policy name =
  match List.assoc_opt name policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown serve policy %S (valid: %s)" name
         (String.concat ", " policy_names))

(* Wrap a backend so every instance it creates starts under [policy] —
   lets the differential oracle replay traces against a batched world
   without any driver knowing about policies. *)
let with_policy ~policy (b : Backend.b) : Backend.b =
  let module B = (val b) in
  (module struct
    include B

    let create ?isa ~ncpus () =
      let t = B.create ?isa ~ncpus () in
      B.set_shootdown_policy t policy;
      t
  end : Backend.S)

(* -- Reports -- *)

type phase_stats = {
  s_count : int;
  s_mean : float;
  s_p50 : int;
  s_p99 : int;
  s_p999 : int;
  s_max : int;
}

type report = {
  r_system : string;
  r_mix : string;
  r_policy : string;
  r_sessions : int;
  r_ops : int;
  r_cycles : int; (* measured interval, barrier release to last done *)
  r_mmap : phase_stats;
  r_fault : phase_stats;
  r_mprotect : phase_stats;
  r_munmap : phase_stats;
  r_fork : phase_stats; (* address-space clone, fork mixes only *)
  r_session : phase_stats; (* arrival-to-completion, includes queueing *)
  r_ipis : int;
  r_batched : int; (* shootdown records deferred to a batch *)
  r_batch_flushes : int;
  r_worst_stall : int; (* max enqueue-to-flush age of a deferred record *)
}

let stats_of h =
  {
    s_count = Metrics.samples h;
    s_mean = Metrics.mean h;
    s_p50 = Metrics.quantile h 0.5;
    s_p99 = Metrics.quantile h 0.99;
    s_p999 = Metrics.quantile h 0.999;
    s_max = Metrics.max_value h;
  }

(* Exponential sample with the given mean, truncated to whole cycles. *)
let exp_sample rng mean =
  if mean <= 0 then 0
  else int_of_float (-.log (1.0 -. Rng.float rng) *. float_of_int mean)

(* -- The load generator -- *)

let run ?isa ~backend ~mix ~policy_name ~policy ~ncpus ~sessions ~seed () =
  let sys = System.of_backend ?isa backend ~ncpus in
  System.set_shootdown_policy sys policy;
  let ps = sys.System.page_size in
  let h_mmap = Metrics.unregistered "serve.mmap"
  and h_fault = Metrics.unregistered "serve.fault"
  and h_mprotect = Metrics.unregistered "serve.mprotect"
  and h_munmap = Metrics.unregistered "serve.munmap"
  and h_fork = Metrics.unregistered "serve.fork"
  and h_session = Metrics.unregistered "serve.session" in
  let total_ops = ref 0 in
  (* Fork mixes: one hot region per generator CPU, mapped and written in
     the parent before the measured interval, so every session's child
     inherits pages it must COW-break. Child TLBs are fresh per fork, so
     their shootdown traffic is accumulated here as each child drains. *)
  let hot_pages = 4 in
  let hot = Array.make ncpus 0 in
  let child_ipis = ref 0
  and child_batched = ref 0
  and child_flushes = ref 0
  and child_stall = ref 0 in
  (* Spread the session quota over the CPUs; remainder to the low ids. *)
  let quota cpu =
    (sessions / ncpus) + if cpu < sessions mod ncpus then 1 else 0
  in
  let measure cpu =
    (* One independent stream per CPU: arrival order across CPUs is an
       emergent interleaving, but each CPU's schedule depends only on
       (seed, cpu). *)
    let rng = Rng.create ~seed:(seed + ((cpu + 1) * 0x9e3779b9)) in
    let f = Engine.fiber () in
    let ops = ref 0 in
    let op_done () =
      incr ops;
      incr total_ops;
      if !ops mod 8 = 0 then System.timer_tick sys
    in
    let think () =
      let d = exp_sample rng mix.Mix.think in
      if d > 0 then Engine.tick_on f d
    in
    let next_arrival = ref (f.f_time) in
    for sess = 1 to quota cpu do
      next_arrival := !next_arrival + exp_sample rng mix.Mix.interarrival;
      (* Open loop: if we are early, wait for the arrival; if the backlog
         already pushed us past it, start at once — the lateness is the
         queueing delay and stays inside the session latency. *)
      if f.f_time < !next_arrival then Engine.advance_to !next_arrival;
      let arrival = !next_arrival in
      (* A fork-fleet session runs in its own forked child: clone the
         shared parent (the mix's signature cost, in its own histogram),
         COW-break every inherited hot page, then run the bursts in the
         child's private space. Non-fork mixes run directly on [sys]. *)
      let ssys =
        if not mix.Mix.fork then sys
        else begin
          let t0 = f.f_time in
          let child = Errno.ok_exn (System.fork sys) in
          Metrics.observe h_fork (f.f_time - t0);
          (* The child's TLB is fresh: re-arm the run's policy so its
             unmaps see the same shootdown regime as the parent's. *)
          System.set_shootdown_policy child policy;
          op_done ();
          think ();
          for p = 0 to hot_pages - 1 do
            let t0 = f.f_time in
            Errno.ok_exn
              (System.write_value child
                 ~vaddr:(hot.(cpu) + (p * ps))
                 ~value:(((cpu + 1) * 1_000_000) + p));
            Metrics.observe h_fault (f.f_time - t0);
            op_done ()
          done;
          think ();
          child
        end
      in
      for _ = 1 to mix.Mix.bursts do
        let pages = Rng.int_in rng ~lo:mix.Mix.min_pages ~hi:mix.Mix.max_pages in
        let len = pages * ps in
        let t0 = f.f_time in
        let addr = Errno.ok_exn (System.mmap ssys ~len ~perm:Perm.rw ()) in
        Metrics.observe h_mmap (f.f_time - t0);
        op_done ();
        think ();
        for p = 0 to pages - 1 do
          let t0 = f.f_time in
          (match System.touch ssys ~vaddr:(addr + (p * ps)) ~write:true with
          | Ok () -> ()
          | Error _ -> ());
          Metrics.observe h_fault (f.f_time - t0);
          op_done ()
        done;
        think ();
        (* The wire coin: only drawn for mixes that ask for it (so
           pre-reclaim mixes keep their historical RNG streams), but
           drawn before the capability check so the arrival/size stream
           stays identical across backends with and without reclaim. *)
        let wire =
          mix.Mix.mlock_prob > 0.0 && Rng.float rng < mix.Mix.mlock_prob
        in
        let wired = wire && System.has_reclaim ssys in
        if wired then begin
          let t0 = f.f_time in
          (match System.mlock ssys ~addr ~len with Ok () | Error _ -> ());
          Metrics.observe h_fault (f.f_time - t0);
          op_done ();
          think ()
        end;
        (* Draw the seal coin unconditionally so the arrival/size stream
           stays identical across backends with and without mprotect. *)
        let seal = Rng.float rng < mix.Mix.mprotect_prob in
        if seal && System.has_mprotect ssys then begin
          let t0 = f.f_time in
          Errno.ok_exn (System.mprotect ssys ~addr ~len ~perm:Perm.r);
          Metrics.observe h_mprotect (f.f_time - t0);
          op_done ();
          think ()
        end;
        if wired then begin
          (* Unwire before unmap, like a real tenant would (munmap does
             not implicitly unlock). *)
          (match System.munlock ssys ~addr ~len with Ok () | Error _ -> ());
          op_done ()
        end;
        let t0 = f.f_time in
        Errno.ok_exn (System.munmap ssys ~addr ~len);
        Metrics.observe h_munmap (f.f_time - t0);
        op_done ()
      done;
      (* Pressure wave: every [pressure_every]-th session ends with a
         synchronous page-out daemon pass on the serving CPU. The stall
         (and the refaults it causes other sessions) lands inside the
         session latencies — the tail the storm is meant to move. *)
      if
        mix.Mix.pressure_every > 0
        && sess mod mix.Mix.pressure_every = 0
        && System.has_reclaim sys
      then begin
        (match System.pressure sys ~target_pages:mix.Mix.pressure_pages with
        | Ok _ | Error _ -> ());
        op_done ()
      end;
      if mix.Mix.fork then begin
        (* Drain the child's pending shootdown batch (deferred frame
           frees must land before teardown), bank its TLB accounting,
           and retire the process. *)
        System.set_shootdown_policy ssys Tlb.Immediate;
        let cc = System.tlb_counters ssys in
        child_ipis := !child_ipis + cc.Tlb.ipis;
        child_batched := !child_batched + cc.Tlb.batched;
        child_flushes := !child_flushes + cc.Tlb.batch_flushes;
        child_stall := max !child_stall cc.Tlb.worst_stall;
        System.destroy ssys;
        op_done ()
      end;
      Metrics.observe h_session (f.f_time - arrival)
    done
  in
  let prep cpu =
    System.warm sys ~cpu;
    if mix.Mix.fork then begin
      let addr =
        Errno.ok_exn (System.mmap sys ~len:(hot_pages * ps) ~perm:Perm.rw ())
      in
      hot.(cpu) <- addr;
      for p = 0 to hot_pages - 1 do
        Errno.ok_exn
          (System.write_value sys
             ~vaddr:(addr + (p * ps))
             ~value:(((cpu + 1) * 1000) + p))
      done
    end
  in
  let cycles = Runner.run_phases ~prep ~ncpus ~measure () in
  (* Drain: reverting to Immediate completes any still-pending batch, so
     every deferred frame free lands before we read the counters. *)
  System.set_shootdown_policy sys Tlb.Immediate;
  let c = System.tlb_counters sys in
  {
    r_system = sys.System.name;
    r_mix = mix.Mix.name;
    r_policy = policy_name;
    r_sessions = sessions;
    r_ops = !total_ops;
    r_cycles = cycles;
    r_mmap = stats_of h_mmap;
    r_fault = stats_of h_fault;
    r_mprotect = stats_of h_mprotect;
    r_munmap = stats_of h_munmap;
    r_fork = stats_of h_fork;
    r_session = stats_of h_session;
    r_ipis = c.Tlb.ipis + !child_ipis;
    r_batched = c.Tlb.batched + !child_batched;
    r_batch_flushes = c.Tlb.batch_flushes + !child_flushes;
    r_worst_stall = max c.Tlb.worst_stall !child_stall;
  }

(* Every (system, policy) combination, in the given order. Each cell is
   an independent world, so with [jobs > 1] cells run on separate
   domains; the ordered merge keeps the report list (and hence the table
   and JSON) byte-identical for any [jobs]. *)
let run_matrix ?isa ?(jobs = 1) ~systems ~mix ~policies ~ncpus ~sessions ~seed
    () =
  let cells =
    List.concat_map
      (fun (e : System.Registry.entry) ->
        List.map (fun policy -> (e, policy)) policies)
      systems
  in
  Mm_par.Par.map ~jobs
    (fun ((e : System.Registry.entry), (policy_name, policy)) ->
      Runner.reset_world_state ();
      run ?isa ~backend:e.System.Registry.r_backend ~mix ~policy_name ~policy
        ~ncpus ~sessions ~seed ())
    cells

(* -- Serialization -- *)

let json_of_stats s =
  let open Mm_obs in
  Json.Obj
    [
      ("count", Json.Int s.s_count);
      ("mean", Json.Float s.s_mean);
      ("p50", Json.Int s.s_p50);
      ("p99", Json.Int s.s_p99);
      ("p999", Json.Int s.s_p999);
      ("max", Json.Int s.s_max);
    ]

let json_of_report r =
  let open Mm_obs in
  Json.Obj
    [
      ("system", Json.String r.r_system);
      ("mix", Json.String r.r_mix);
      ("policy", Json.String r.r_policy);
      ("sessions", Json.Int r.r_sessions);
      ("ops", Json.Int r.r_ops);
      ("cycles", Json.Int r.r_cycles);
      ("mmap", json_of_stats r.r_mmap);
      ("fault", json_of_stats r.r_fault);
      ("mprotect", json_of_stats r.r_mprotect);
      ("munmap", json_of_stats r.r_munmap);
      ("fork", json_of_stats r.r_fork);
      ("session", json_of_stats r.r_session);
      ("ipis", Json.Int r.r_ipis);
      ("batched", Json.Int r.r_batched);
      ("batch_flushes", Json.Int r.r_batch_flushes);
      ("worst_stall", Json.Int r.r_worst_stall);
    ]

let report_json ~mix ~ncpus ~sessions ~seed reports =
  let open Mm_obs in
  Json.Obj
    [
      ("benchmark", Json.String "serve");
      ("mix", Json.String mix.Mix.name);
      ("ncpus", Json.Int ncpus);
      ("sessions", Json.Int sessions);
      ("seed", Json.Int seed);
      ("results", Json.List (List.map json_of_report reports));
    ]

let write_json ~path ~mix ~ncpus ~sessions ~seed reports =
  Mm_obs.Json.write_file ~path (report_json ~mix ~ncpus ~sessions ~seed reports)

(* Human-readable SLO table: session latency percentiles (the number an
   operator would put an objective on) plus the shootdown accounting that
   explains them. *)
let table reports =
  let fmt = string_of_int in
  let rows =
    List.map
      (fun r ->
        [
          r.r_system;
          r.r_policy;
          fmt r.r_sessions;
          fmt r.r_session.s_p50;
          fmt r.r_session.s_p99;
          fmt r.r_session.s_p999;
          fmt r.r_session.s_max;
          fmt r.r_munmap.s_p99;
          fmt r.r_ipis;
          fmt r.r_worst_stall;
        ])
      reports
  in
  Mm_util.Tablefmt.render
    ~header:
      [
        "system";
        "policy";
        "sessions";
        "sess p50";
        "sess p99";
        "sess p999";
        "sess max";
        "unmap p99";
        "ipis";
        "worst stall";
      ]
    rows
