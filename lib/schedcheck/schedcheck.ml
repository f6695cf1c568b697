(* Schedule exploration for the concurrent core.

   One run: a small concurrent cursor workload — overlapping mmap /
   munmap / mprotect / touch over a fixed 16-page window, fork-clone,
   promote_huge over the window's 2 MiB region — executed on a world
   whose tie-break policy is controlled ({!Mm_sim.Sched}). During the
   run a {!Mm_verif.Live} checker subscribes to the {!Mm_obs.Trace} bus and
   checks mutual exclusion, the transaction property (P1) and RCU grace
   periods against the protocols as implemented. Afterwards the final
   address-space state is compared page-by-page against a sequential
   reference replay of the same operations in their observed
   serialization order (P2 at the whole-run level).

   Every operation uses fixed explicit addresses, so the sequential
   replay is deterministic: the per-core VA allocator never chooses.
   Each workload op is effectively atomic at its *last* cursor commit
   (intermediate transactions of touch retries or fork only read or
   build private state), so ordering ops by the global sequence number
   of their last commit is a valid serialization to compare against.

   Exploration draws tie-break keys from a seeded policy per seed;
   violations shrink to a minimal key sequence (shorter prefix, fewer
   forced preemptions) that is saved as a {!Schedule} replay file. *)

module Perm = Mm_hal.Perm
module Engine = Mm_sim.Engine
module Sched = Mm_sim.Sched
open Cortenmm

let page = 4096
let win_pages = 16

(* 2 MiB aligned, so [Op_promote] scans the enclosing huge-page region
   (it never qualifies — the window is too small to fully populate — but
   the scan takes a cursor transaction over the whole 2 MiB range, the
   widest overlap in the workload). *)
let win_base = 0x4000_0000

(* -- Mutants: deliberately broken synchronization, for harness
   validation. The flags live in the simulated lock implementations. -- *)

type mutant = M_none | M_rw_skip_handoff | M_rcu_no_gp

let mutant_name = function
  | M_none -> "none"
  | M_rw_skip_handoff -> "rw-skip-handoff"
  | M_rcu_no_gp -> "rcu-no-gp"

let mutants = [ M_none; M_rw_skip_handoff; M_rcu_no_gp ]

let mutant_of_string s =
  match List.find_opt (fun m -> mutant_name m = s) mutants with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown mutant %S (valid: %s)" s
         (String.concat ", " (List.map mutant_name mutants)))

let set_mutant m =
  Mm_sim.Rwlock_s.set_mutant_skip_writer_handoff (m = M_rw_skip_handoff);
  Mm_sim.Rcu_s.set_mutant_no_grace_period (m = M_rcu_no_gp)

(* -- Workload -- *)

type op =
  | Op_mmap of { op_page : int; npages : int; writable : bool }
  | Op_munmap of { op_page : int; npages : int }
  | Op_mprotect of { op_page : int; npages : int; writable : bool }
  | Op_touch of { op_page : int; write : bool }
  | Op_fork
  | Op_promote

let op_to_string = function
  | Op_mmap { op_page; npages; writable } ->
    Printf.sprintf "mmap[%d..%d)%s" op_page (op_page + npages)
      (if writable then "rw" else "r")
  | Op_munmap { op_page; npages } ->
    Printf.sprintf "munmap[%d..%d)" op_page (op_page + npages)
  | Op_mprotect { op_page; npages; writable } ->
    Printf.sprintf "mprotect[%d..%d)%s" op_page (op_page + npages)
      (if writable then "rw" else "r")
  | Op_touch { op_page; write } ->
    Printf.sprintf "touch[%d]%s" op_page (if write then "w" else "r")
  | Op_fork -> "fork"
  | Op_promote -> "promote"

(* Deterministic per-cpu op streams: a function of the workload seed
   only, independent of the schedule. *)
let gen_ops ~cpus ~ops_per_cpu ~seed =
  let rng = Mm_util.Rng.create ~seed in
  Array.init cpus (fun _cpu ->
      let r = Mm_util.Rng.split rng in
      Array.init ops_per_cpu (fun _ ->
          let op_page = Mm_util.Rng.int r win_pages in
          let npages () = 1 + Mm_util.Rng.int r (win_pages - op_page) in
          match Mm_util.Rng.int r 100 with
          | x when x < 28 ->
            Op_mmap { op_page; npages = npages (); writable = Mm_util.Rng.bool r }
          | x when x < 44 -> Op_munmap { op_page; npages = npages () }
          | x when x < 58 ->
            Op_mprotect
              { op_page; npages = npages (); writable = Mm_util.Rng.bool r }
          | x when x < 88 -> Op_touch { op_page; write = Mm_util.Rng.bool r }
          | x when x < 94 -> Op_fork
          | _ -> Op_promote))

(* Every arm goes through the typed [_r] API and treats its outcome as
   data: overlapping fixed-address requests legitimately fail under some
   interleavings. *)
let exec_op asp op =
  let addr p = win_base + (p * page) in
  match op with
  | Op_mmap { op_page; npages; writable } ->
    let perm = if writable then Perm.rw else Perm.r in
    ignore (Mm.mmap_r asp ~addr:(addr op_page) ~len:(npages * page) ~perm ())
  | Op_munmap { op_page; npages } ->
    ignore (Mm.munmap_r asp ~addr:(addr op_page) ~len:(npages * page))
  | Op_mprotect { op_page; npages; writable } ->
    let perm = if writable then Perm.rw else Perm.r in
    ignore (Mm.mprotect_r asp ~addr:(addr op_page) ~len:(npages * page) ~perm)
  | Op_touch { op_page; write } ->
    (* The fault handler, not [touch_r]: an access that hits a (possibly
       deliberately stale, LATR) TLB entry takes no transaction and
       depends on per-cpu TLB history, which the sequential reference
       cannot reproduce. [page_fault] is the state transition itself —
       a function of the address space only. *)
    ignore (Mm.page_fault asp ~vaddr:(addr op_page) ~write)
  | Op_fork ->
    let child = Mm.fork asp in
    Mm.destroy child
  | Op_promote -> ignore (Mm.promote_huge asp ~vaddr:win_base)

(* -- One run -- *)

type config = {
  protocol : Config.t;
  cpus : int;
  ops_per_cpu : int;
  workload_seed : int;
  mutant : mutant;
}

type run = {
  violations : string list;  (** empty means the run was clean *)
  keys : int array;  (** tie-break keys a [random] policy recorded *)
}

(* Probe the window's observable per-page state, mirroring the corten
   backend's [page_state]. Cursor operations need fiber context, so the
   probe runs in its own single-cpu world (the run's world has
   finished; its locks are free whenever the run was violation-free). *)
let probe_window asp =
  let result = ref [||] in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      Addr_space.check_well_formed asp;
      result :=
        Addr_space.with_lock asp ~lo:win_base
          ~hi:(win_base + (win_pages * page))
          (fun c ->
            Array.init win_pages (fun i ->
                match Addr_space.query c (win_base + (i * page)) with
                | Status.Invalid -> Mm_workloads.Backend.P_unmapped
                | Status.Mapped { perm; _ } ->
                  Mm_workloads.Backend.P_mapped
                    {
                      writable = perm.Perm.write || perm.Perm.cow;
                      resident = true;
                    }
                | Status.Private_anon perm
                | Status.Private_file { perm; _ }
                | Status.Shared_anon { perm; _ }
                | Status.Swapped { perm; _ } ->
                  Mm_workloads.Backend.P_mapped
                    { writable = perm.Perm.write; resident = false })));
  Engine.run w;
  !result

(* Functional correctness of the final state: replay the ops serially,
   in the order of their last commits, on a fresh single-cpu kernel and
   compare the window page-by-page. *)
let final_state_mismatches cfg ops stamps asp_concurrent =
  let order =
    let all = ref [] in
    Array.iteri
      (fun cpu row ->
        Array.iteri (fun i op -> all := (stamps.(cpu).(i), cpu, i, op) :: !all)
          row)
      ops;
    List.sort compare !all
  in
  let got = probe_window asp_concurrent in
  let reference = ref [||] in
  let w = Engine.create ~ncpus:1 in
  let kernel = Kernel.create ~ncpus:1 () in
  let asp = Addr_space.create kernel cfg.protocol in
  Engine.spawn w ~cpu:0 (fun () ->
      List.iter (fun (_, _, _, op) -> exec_op asp op) order);
  Engine.run w;
  reference := probe_window asp;
  Mm_workloads.Diff.compare_page_states ~region:"window" !reference got

(* Execute the workload under [sched] and collect every violation: live
   protocol invariants, deadlock, unexpected exceptions, and the final
   address-space state against the sequential reference. *)
let run_once cfg ~sched =
  if cfg.cpus <= 0 then invalid_arg "Schedcheck: cpus";
  if cfg.ops_per_cpu <= 0 then invalid_arg "Schedcheck: ops_per_cpu";
  (* Violation text embeds lock and RCU callback ids; resetting the
     domain-local counters here makes every run's wording a pure
     function of (cfg, schedule) — independent of which domain runs it
     or what ran before, so parallel exploration reports the same text
     as sequential. *)
  Mm_workloads.Runner.reset_world_state ();
  let ops =
    gen_ops ~cpus:cfg.cpus ~ops_per_cpu:cfg.ops_per_cpu
      ~seed:cfg.workload_seed
  in
  set_mutant cfg.mutant;
  Fun.protect
    ~finally:(fun () ->
      set_mutant M_none;
      Mm_obs.Trace.clear_checker ())
  @@ fun () ->
  let live = Mm_verif.Live.create ~ncpus:cfg.cpus in
  (* Global commit sequence: events are emitted synchronously by the
     committing fiber, so this numbering is the true execution order.
     [last_commit.(cpu)] stamps the op a cpu just finished. *)
  let commit_seq = ref 0 in
  let last_commit = Array.make cfg.cpus 0 in
  Mm_obs.Trace.set_checker (fun e ->
      Mm_verif.Live.observe live e;
      match e.payload with
      | Txn_committed _ ->
        incr commit_seq;
        if e.cpu >= 0 && e.cpu < cfg.cpus then
          last_commit.(e.cpu) <- !commit_seq
      | _ -> ());
  let sched = sched () in
  let w = Engine.create_sched ~sched ~ncpus:cfg.cpus in
  let kernel = Kernel.create ~ncpus:cfg.cpus () in
  let asp = Addr_space.create kernel cfg.protocol in
  let stamps = Array.make_matrix cfg.cpus cfg.ops_per_cpu 0 in
  let op_errors = ref [] in
  for cpu = 0 to cfg.cpus - 1 do
    Engine.spawn w ~cpu (fun () ->
        Array.iteri
          (fun i op ->
            (try exec_op asp op
             with e ->
               op_errors :=
                 Printf.sprintf "cpu %d op %d (%s) raised %s" cpu i
                   (op_to_string op) (Printexc.to_string e)
                 :: !op_errors);
            stamps.(cpu).(i) <- last_commit.(cpu))
          ops.(cpu))
  done;
  let deadlock =
    try
      Engine.run w;
      None
    with Engine.Deadlock msg -> Some msg
  in
  (* Live state is complete; stop observing so the reference replay and
     the probes below stay invisible to the checker. Mutants off too:
     the sequential reference must be the *correct* semantics. *)
  Mm_obs.Trace.clear_checker ();
  set_mutant M_none;
  let violations = ref (List.rev !op_errors) in
  (match deadlock with
  | Some msg ->
    violations := !violations @ [ Printf.sprintf "deadlock: %s" msg ]
  | None -> Mm_verif.Live.check_quiescent live);
  violations := !violations @ Mm_verif.Live.violations live;
  (* The functional check only runs on protocol-clean completed runs: a
     deadlocked or violating world may have left locks held, and probing
     would hang on them. *)
  if !violations = [] then
    (try
       match final_state_mismatches cfg ops stamps asp with
       | [] -> ()
       | ms ->
         violations :=
           List.map (fun m -> "final state diverges from serial replay: " ^ m) ms
     with e ->
       violations :=
         [ "final-state check raised " ^ Printexc.to_string e ]);
  { violations = !violations; keys = Sched.recorded sched }

(* -- Shrinking: a smaller key sequence with the same verdict -- *)

let shrink cfg ~keys ~budget =
  let runs = ref 0 in
  let violates ks =
    if !runs >= budget then false
    else begin
      incr runs;
      (run_once cfg ~sched:(fun () -> Sched.replay ks)).violations <> []
    end
  in
  (* Phase 1: drop tail chunks (halving the chunk on failure). Keys past
     the prefix revert to the default fifo order. *)
  let len = ref (Array.length keys) in
  let chunk = ref (max 1 (Array.length keys / 2)) in
  while !chunk >= 1 && !runs < budget do
    if !len >= !chunk && violates (Array.sub keys 0 (!len - !chunk)) then
      len := !len - !chunk
    else chunk := !chunk / 2
  done;
  (* Phase 2: zero individual keys — each zero is one less forced
     preemption. *)
  let arr = Array.sub keys 0 !len in
  for i = 0 to Array.length arr - 1 do
    if arr.(i) <> 0 && !runs < budget then begin
      let saved = arr.(i) in
      arr.(i) <- 0;
      if not (violates (Array.copy arr)) then arr.(i) <- saved
    end
  done;
  (* Trailing zeros are the default order: drop them. *)
  let n = ref (Array.length arr) in
  while !n > 0 && arr.(!n - 1) = 0 do
    decr n
  done;
  (Array.sub arr 0 !n, !runs)

(* -- Exploration -- *)

type outcome =
  | Clean of { seeds : int }
  | Violation of {
      sched_seed : int;
      keys : int array;  (** minimized *)
      violations : string list;
      shrink_runs : int;
    }

let explore ?(amplitude = 8) ?(seed0 = 1) ?(shrink_budget = 200) ?(jobs = 1)
    ~seeds cfg =
  let violation_at i =
    let r =
      run_once cfg ~sched:(fun () ->
          Sched.random ~amplitude ~seed:(seed0 + i) ())
    in
    if r.violations = [] then None else Some (i, r)
  in
  (* Find the violation with the LOWEST seed index — the exact one a
     sequential scan reports first. Sequentially that is a stop-at-first
     walk; in parallel the seed range is split into [jobs] contiguous
     chunks, each scanned in order on its own domain. A chunk may only
     skip a seed when a strictly lower violating index is already
     published ([best]), so the minimum violating index can never be
     pruned away, and taking the min over chunk results returns exactly
     the sequential answer (each run's verdict and wording being a pure
     function of (cfg, seed) — see [run_once]). *)
  let first =
    if min jobs seeds <= 1 then begin
      let rec go i =
        if i >= seeds then None
        else match violation_at i with Some v -> Some v | None -> go (i + 1)
      in
      go 0
    end
    else begin
      let best = Atomic.make max_int in
      let rec publish i =
        let b = Atomic.get best in
        if i < b && not (Atomic.compare_and_set best b i) then publish i
      in
      let scan_chunk c =
        let lo = c * seeds / jobs and hi = (c + 1) * seeds / jobs in
        let rec go i =
          if i >= hi || i >= Atomic.get best then None
          else
            match violation_at i with
            | Some v ->
              publish i;
              Some v
            | None -> go (i + 1)
        in
        go lo
      in
      Mm_par.Par.map ~jobs scan_chunk (List.init jobs Fun.id)
      |> List.fold_left
           (fun acc r ->
             match (acc, r) with
             | Some (i, _), Some (j, _) -> if i <= j then acc else r
             | None, r -> r
             | acc, None -> acc)
           None
    end
  in
  match first with
  | None -> Clean { seeds }
  | Some (i, r) ->
    let keys, shrink_runs = shrink cfg ~keys:r.keys ~budget:shrink_budget in
    (* Report the minimized run's violations (they may differ in
       wording from the original's; the verdict is the same). Shrinking
       and the final replay run sequentially on the calling domain. *)
    let final = run_once cfg ~sched:(fun () -> Sched.replay keys) in
    let violations =
      if final.violations = [] then r.violations else final.violations
    in
    Violation { sched_seed = seed0 + i; keys; violations; shrink_runs }

(* -- Schedule files -- *)

let schedule_of cfg keys =
  {
    Schedule.protocol = Config.protocol_to_string cfg.protocol.Config.protocol;
    cpus = cfg.cpus;
    ops = cfg.ops_per_cpu;
    workload_seed = cfg.workload_seed;
    mutant = mutant_name cfg.mutant;
    keys;
  }

let config_of_schedule (s : Schedule.t) =
  let protocol =
    match s.protocol with
    | "adv" -> Ok Config.adv
    | "rw" -> Ok Config.rw
    | p -> Error (Printf.sprintf "unknown protocol %S (valid: adv, rw)" p)
  in
  Result.bind protocol (fun protocol ->
      Result.map
        (fun mutant ->
          {
            protocol;
            cpus = s.Schedule.cpus;
            ops_per_cpu = s.Schedule.ops;
            workload_seed = s.Schedule.workload_seed;
            mutant;
          })
        (mutant_of_string s.Schedule.mutant))

let replay_schedule (s : Schedule.t) =
  Result.map
    (fun cfg ->
      (run_once cfg ~sched:(fun () -> Sched.replay s.Schedule.keys)).violations)
    (config_of_schedule s)
