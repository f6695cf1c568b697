(* Tests for the workload layer: the system façade, allocator models,
   microbenchmark harness, application models and the LMbench drivers —
   smoke tests for every figure's machinery plus directional assertions
   (what must scale, what must serialize). *)

module Engine = Mm_sim.Engine
module System = Mm_workloads.System
module Micro = Mm_workloads.Micro
module Apps = Mm_workloads.Apps
module Alloc_model = Mm_workloads.Alloc_model
module Runner = Mm_workloads.Runner
module Perm = Mm_hal.Perm
module Errno = Mm_hal.Errno

let check = Alcotest.check

let corten_adv = System.Corten Cortenmm.Config.adv

let all_kinds =
  [ System.Linux; System.Radixvm; System.Nros; corten_adv;
    System.Corten Cortenmm.Config.rw ]

(* -- Runner -- *)

let test_barrier_phases () =
  let order = Buffer.create 16 in
  let cycles =
    Runner.run_phases ~ncpus:3
      ~setup:(fun () ->
        Engine.tick 1_000;
        Buffer.add_char order 's')
      ~prep:(fun _ ->
        Engine.tick 100;
        Buffer.add_char order 'p')
      ~measure:(fun _ ->
        Engine.tick 500;
        Buffer.add_char order 'm')
      ()
  in
  check Alcotest.string "phase order" "spppmmm" (Buffer.contents order);
  (* Measured interval covers only the measure phase. *)
  check Alcotest.bool (Printf.sprintf "measured %d" cycles) true
    (cycles >= 500 && cycles < 1_000)

(* -- System façade -- *)

let test_system_smoke () =
  List.iter
    (fun kind ->
      let sys = System.make kind ~ncpus:2 in
      let cycles =
        Runner.run_phases ~ncpus:2 ()
          ~measure:(fun _ ->
            let a = Errno.ok_exn (System.mmap sys ~len:16384 ~perm:Perm.rw ()) in
            (if System.demand_paging sys then
               Errno.ok_exn
                 (System.touch_range sys ~addr:a ~len:16384 ~write:true));
            Errno.ok_exn (System.munmap sys ~addr:a ~len:16384))
      in
      check Alcotest.bool
        (sys.System.name ^ " does work")
        true (cycles > 0);
      let m = System.mem_stats sys in
      check Alcotest.bool (sys.System.name ^ " pt bytes sane") true
        (m.System.pt_bytes >= 0))
    all_kinds

(* -- Allocator models -- *)

let with_corten_sys f =
  let sys = System.make corten_adv ~ncpus:1 in
  let out = ref None in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () -> out := Some (f sys));
  Engine.run w;
  Option.get !out

let test_ptmalloc_returns_memory () =
  let mmaps, munmaps =
    with_corten_sys (fun sys ->
        let a = Alloc_model.create ~kind:Alloc_model.Ptmalloc ~sys in
        for _ = 1 to 10 do
          let big = Alloc_model.alloc a ~size:(256 * 1024) in
          Alloc_model.free a ~addr:big ~size:(256 * 1024)
        done;
        (Alloc_model.mmap_calls a, Alloc_model.munmap_calls a))
  in
  (* Large blocks are mapped and unmapped every time. *)
  check Alcotest.int "10 mmaps" 10 mmaps;
  check Alcotest.int "10 munmaps" 10 munmaps

let test_tcmalloc_caches () =
  let mmaps, munmaps, cached =
    with_corten_sys (fun sys ->
        let a = Alloc_model.create ~kind:Alloc_model.Tcmalloc ~sys in
        for _ = 1 to 10 do
          let big = Alloc_model.alloc a ~size:(256 * 1024) in
          Alloc_model.free a ~addr:big ~size:(256 * 1024)
        done;
        (Alloc_model.mmap_calls a, Alloc_model.munmap_calls a,
         Alloc_model.cached_bytes a))
  in
  (* Only the first allocation maps; frees go to the thread cache. *)
  check Alcotest.int "1 mmap" 1 mmaps;
  check Alcotest.int "0 munmaps" 0 munmaps;
  check Alcotest.int "one block cached" (256 * 1024) cached

let test_ptmalloc_arena_small () =
  let mmaps =
    with_corten_sys (fun sys ->
        let a = Alloc_model.create ~kind:Alloc_model.Ptmalloc ~sys in
        (* 16 x 8 KiB fit one 1 MiB arena: one mmap total. *)
        for _ = 1 to 16 do
          ignore (Alloc_model.alloc a ~size:(8 * 1024))
        done;
        Alloc_model.mmap_calls a)
  in
  check Alcotest.int "one arena mmap" 1 mmaps

(* -- Microbenchmarks -- *)

let test_micro_all_cells_smoke () =
  List.iter
    (fun kind ->
      List.iter
        (fun bench ->
          List.iter
            (fun contention ->
              match
                Micro.run ~kind ~ncpus:2 ~bench ~contention ~iters:5 ()
              with
              | Some r ->
                check Alcotest.bool
                  (Printf.sprintf "%s/%s/%s positive"
                     (System.kind_name kind) (Micro.bench_name bench)
                     (Micro.contention_name contention))
                  true
                  (r.Runner.ops_per_sec > 0.0)
              | None ->
                check Alcotest.bool "unsupported only for nros" true
                  (kind = System.Nros))
            [ Micro.Low; Micro.High ])
        Micro.all_benches)
    all_kinds

let test_linux_mmap_flat_corten_scales () =
  let tp kind ncpus =
    match
      Micro.run ~kind ~ncpus ~bench:Micro.Mmap ~contention:Micro.Low ~iters:30
        ()
    with
    | Some r -> r.Runner.ops_per_sec
    | None -> nan
  in
  let linux_speedup = tp System.Linux 16 /. tp System.Linux 1 in
  let corten_speedup = tp corten_adv 16 /. tp corten_adv 1 in
  check Alcotest.bool
    (Printf.sprintf "linux mmap near-flat (%.1fx)" linux_speedup)
    true (linux_speedup < 3.0);
  check Alcotest.bool
    (Printf.sprintf "corten mmap scales (%.1fx)" corten_speedup)
    true
    (corten_speedup > 8.0)

let test_fig13_directions () =
  (* The paper's single-thread directions: corten loses only mmap. The
     iteration count matches fig13's (the mmap cost is bimodal: every
     128th region allocates a fresh leaf PT page). *)
  let tp kind bench =
    match Micro.run ~kind ~ncpus:1 ~bench ~contention:Micro.Low ~iters:200 () with
    | Some r -> r.Runner.ops_per_sec
    | None -> nan
  in
  List.iter
    (fun bench ->
      let l = tp System.Linux bench and c = tp corten_adv bench in
      match bench with
      | Micro.Mmap ->
        check Alcotest.bool "corten loses mmap" true (c < l)
      | _ ->
        check Alcotest.bool
          (Micro.bench_name bench ^ ": corten wins")
          true (c > l))
    Micro.all_benches

(* -- Applications -- *)

let test_jvm_lower_on_corten () =
  let linux = Apps.jvm_thread_creation ~kind:System.Linux ~nthreads:16 () in
  let corten = Apps.jvm_thread_creation ~kind:corten_adv ~nthreads:16 () in
  check Alcotest.bool
    (Printf.sprintf "corten faster (linux %d, corten %d)" linux corten)
    true (corten < linux)

let test_metis_scales () =
  let r1, _ = Apps.metis ~kind:corten_adv ~ncpus:1 () in
  let r8, _ = Apps.metis ~kind:corten_adv ~ncpus:8 () in
  check Alcotest.bool
    (Printf.sprintf "metis scales (%.0f -> %.0f)" r1.Runner.ops_per_sec
       r8.Runner.ops_per_sec)
    true
    (r8.Runner.ops_per_sec > 3.0 *. r1.Runner.ops_per_sec)

let test_dedup_allocator_effect () =
  (* With ptmalloc, Linux trails corten; with tcmalloc the gap narrows
     (the paper's Fig 17 story). *)
  let tput kind alloc_kind =
    let r, _ = Apps.dedup ~kind ~alloc_kind ~ncpus:16 ~iters_per_thread:10 () in
    r.Runner.ops_per_sec
  in
  let l_pt = tput System.Linux Alloc_model.Ptmalloc in
  let c_pt = tput corten_adv Alloc_model.Ptmalloc in
  let l_tc = tput System.Linux Alloc_model.Tcmalloc in
  let c_tc = tput corten_adv Alloc_model.Tcmalloc in
  check Alcotest.bool
    (Printf.sprintf "ptmalloc: corten wins (%.0f vs %.0f)" c_pt l_pt)
    true (c_pt > l_pt *. 1.2);
  check Alcotest.bool
    (Printf.sprintf "tcmalloc narrows the gap (%.2f vs %.2f)" (c_tc /. l_tc)
       (c_pt /. l_pt))
    true
    (c_tc /. l_tc < c_pt /. l_pt)

let test_parsec_parity () =
  let p = List.hd Apps.parsec_others in
  let l = Apps.run_parsec ~kind:System.Linux ~ncpus:4 p in
  let c = Apps.run_parsec ~kind:corten_adv ~ncpus:4 p in
  let ratio = c.Runner.ops_per_sec /. l.Runner.ops_per_sec in
  check Alcotest.bool
    (Printf.sprintf "parity on %s (%.3f)" p.Apps.p_name ratio)
    true
    (ratio > 0.9 && ratio < 1.1)

(* -- LMbench -- *)

let test_lmbench_directions () =
  let module L = Mm_workloads.Lmbench in
  let linux b = L.run ~kind:`Linux ~bench:b ~iters:4 () in
  let corten b = L.run ~kind:(`Corten Cortenmm.Config.adv) ~bench:b ~iters:4 () in
  (* fork: corten slower (walks page tables to enumerate the space). *)
  let lf = linux L.Fork and cf = corten L.Fork in
  check Alcotest.bool
    (Printf.sprintf "fork: corten slower (linux %d, corten %d)" lf cf)
    true (cf > lf);
  (* fork+exec: corten recovers (faster faults dominate). *)
  let lfe = linux L.Fork_exec and cfe = corten L.Fork_exec in
  let fork_gap = float_of_int cf /. float_of_int lf in
  let fe_gap = float_of_int cfe /. float_of_int lfe in
  check Alcotest.bool
    (Printf.sprintf "fork+exec narrows the gap (%.2f -> %.2f)" fork_gap fe_gap)
    true (fe_gap < fork_gap)

(* -- Traces -- *)

module Trace = Mm_workloads.Trace

let test_trace_roundtrip () =
  let t = Trace.generate ~profile:Trace.Mixed ~ncpus:3 ~ops_per_cpu:50 ~seed:7 in
  let path = Filename.temp_file "mmtrace" ".txt" in
  Trace.save t path;
  let t' = Trace.load path in
  Sys.remove path;
  check Alcotest.int "ncpus preserved" t.Trace.ncpus t'.Trace.ncpus;
  check Alcotest.bool "entries preserved" true (t.Trace.entries = t'.Trace.entries)

let test_trace_parse_errors () =
  let rejects name s =
    Alcotest.(check bool)
      (name ^ " raises") true
      (try
         ignore (Trace.entry_of_string ~line:3 s);
         false
       with Trace.Parse_error (3, _) -> true)
  in
  rejects "unknown op" "0 frobnicate 1";
  rejects "missing fields" "0 mmap 1";
  rejects "trailing garbage" "0 munmap 1 2";
  rejects "bad integer" "x mmap 1 4096 rw";
  rejects "bad protection" "0 mmap 1 4096 rx";
  rejects "bad access" "0 touch 1 0 x";
  rejects "negative cpu" "-1 munmap 1";
  rejects "cpu out of range" "70000 munmap 1";
  rejects "empty line" "";
  rejects "fork of the root" "0 fork 0";
  rejects "negative fork child" "0 fork -2";
  rejects "bad process id" "0 exit @x";
  rejects "negative process id" "0 munmap 1 @-1";
  rejects "exit with arguments" "0 exit 1"

(* Every line the serializer emits must parse back to the same entry. *)
let test_trace_line_roundtrip () =
  let t = Trace.generate ~profile:Trace.Mixed ~ncpus:4 ~ops_per_cpu:60 ~seed:13 in
  Array.iter
    (fun e ->
      let s = Trace.entry_to_string e in
      Alcotest.(check bool)
        (s ^ " roundtrips") true
        (Trace.entry_of_string ~line:1 s = e))
    t.Trace.entries

let test_trace_generate_deterministic () =
  let a = Trace.generate ~profile:Trace.Churn ~ncpus:2 ~ops_per_cpu:40 ~seed:5 in
  let b = Trace.generate ~profile:Trace.Churn ~ncpus:2 ~ops_per_cpu:40 ~seed:5 in
  check Alcotest.bool "same seed, same trace" true (a.Trace.entries = b.Trace.entries)

let test_trace_replay_consistent_across_systems () =
  (* The same trace must perform the same operations everywhere — only
     the time differs. *)
  let t = Trace.generate ~profile:Trace.Mixed ~ncpus:4 ~ops_per_cpu:60 ~seed:11 in
  let stats =
    List.map (fun kind -> Trace.replay ~kind t)
      [ System.Linux; corten_adv; System.Radixvm ]
  in
  match stats with
  | a :: rest ->
    List.iter
      (fun b ->
        check Alcotest.int "same mmaps" a.Trace.mmaps b.Trace.mmaps;
        check Alcotest.int "same munmaps" a.Trace.munmaps b.Trace.munmaps;
        check Alcotest.int "same touches" a.Trace.touches b.Trace.touches)
      rest
  | [] -> assert false

let test_trace_replay_corten_faster_on_churn () =
  let t = Trace.generate ~profile:Trace.Churn ~ncpus:8 ~ops_per_cpu:80 ~seed:3 in
  let linux = Trace.replay ~kind:System.Linux t in
  let corten = Trace.replay ~kind:corten_adv t in
  check Alcotest.bool
    (Printf.sprintf "corten faster on churn (%.0f vs %.0f)"
       corten.Trace.result.Runner.ops_per_sec
       linux.Trace.result.Runner.ops_per_sec)
    true
    (corten.Trace.result.Runner.ops_per_sec
    > linux.Trace.result.Runner.ops_per_sec)

(* Format v2: the "@<proc>" suffix appears exactly on non-root entries
   (so pre-fork traces round-trip byte-identically) and every Forks line
   — fork, exit, write, read included — parses back to itself. *)
let test_trace_forks_roundtrip () =
  let t = Trace.generate ~profile:Trace.Forks ~ncpus:3 ~ops_per_cpu:80 ~seed:21 in
  let has p = Array.exists p t.Trace.entries in
  check Alcotest.bool "generator forks" true
    (has (fun e -> match e.Trace.op with Trace.T_fork _ -> true | _ -> false));
  check Alcotest.bool "generator writes" true
    (has (fun e -> match e.Trace.op with Trace.T_write _ -> true | _ -> false));
  check Alcotest.bool "non-root processes execute ops" true
    (has (fun e -> e.Trace.proc <> 0));
  Array.iter
    (fun e ->
      let s = Trace.entry_to_string e in
      check Alcotest.bool
        (s ^ " mentions @ iff non-root")
        (e.Trace.proc <> 0) (String.contains s '@');
      check Alcotest.bool (s ^ " roundtrips") true
        (Trace.entry_of_string ~line:1 s = e))
    t.Trace.entries;
  let path = Filename.temp_file "mmtrace" ".txt" in
  Trace.save t path;
  let t' = Trace.load path in
  Sys.remove path;
  check Alcotest.bool "file roundtrip" true (t.Trace.entries = t'.Trace.entries)

(* Fork-tree replay: the same Forks trace performs the same process
   lifecycle everywhere — identical fork counts and touch totals, every
   backend tearing the tree down without leaking a divergence. *)
let test_trace_forks_replay_consistent () =
  let t = Trace.generate ~profile:Trace.Forks ~ncpus:2 ~ops_per_cpu:80 ~seed:17 in
  let stats =
    List.map (fun kind -> Trace.replay ~kind t)
      [ System.Linux; corten_adv; System.Radixvm; System.Nros ]
  in
  match stats with
  | a :: rest ->
    check Alcotest.bool "trace has forks" true (a.Trace.forks > 0);
    List.iter
      (fun b ->
        check Alcotest.int "same forks" a.Trace.forks b.Trace.forks;
        check Alcotest.int "same mmaps" a.Trace.mmaps b.Trace.mmaps;
        check Alcotest.int "same munmaps" a.Trace.munmaps b.Trace.munmaps;
        check Alcotest.int "same touches" a.Trace.touches b.Trace.touches;
        check Alcotest.int "same denials" a.Trace.faults_denied
          b.Trace.faults_denied)
      rest
  | [] -> assert false

(* -- Memory accounting across systems (fig22 machinery) -- *)

let test_radixvm_memory_overhead () =
  let pt_of kind =
    let _, (sys : System.t) = Apps.metis ~kind ~ncpus:8 () in
    (System.mem_stats sys).System.pt_bytes
  in
  let corten = pt_of corten_adv in
  let radix = pt_of System.Radixvm in
  check Alcotest.bool
    (Printf.sprintf "radixvm replicates PTs (%d vs %d)" radix corten)
    true
    (radix > 2 * corten)

(* -- Golden determinism of the headline experiment --

   The simulator is deterministic by design: fig1's result table must be
   bit-for-bit stable across runs, hosts and refactors. Any change to the
   digest below means simulated behaviour changed — intended changes must
   update the constant (and say so in review); performance work must not. *)

let fig1_golden_digest = "410ea96e0ba6e825b0134f3917bd1c6e"

let test_fig1_golden_digest () =
  let e =
    match Mm_experiments.Registry.find "fig1" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  Mm_workloads.Runner.start_collecting ();
  Mm_workloads.Runner.set_label e.Mm_experiments.Registry.id;
  Mm_experiments.Registry.run_entry e;
  let results = Mm_workloads.Runner.stop_collecting () in
  check Alcotest.bool "fig1 produced results" true (results <> []);
  let buf = Buffer.create 1024 in
  List.iter
    (fun (label, (r : Runner.result)) ->
      Printf.bprintf buf "%s %d %d %.6f\n" label r.Runner.ops r.Runner.cycles
        r.Runner.ops_per_sec)
    results;
  check Alcotest.string "fig1 result-table digest" fig1_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The same digest must come out of the parallel driver: sharding
   experiments across domains may never change simulated results. Two
   copies of fig1 on two domains also checks runs are independent of
   which domain hosts them. *)
let test_fig1_golden_digest_parallel () =
  let e =
    match Mm_experiments.Registry.find "fig1" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let tasks =
    Mm_experiments.Driver.run_entries ~collect:true ~jobs:2 [ e; e ]
  in
  List.iteri
    (fun i (t : Mm_experiments.Driver.task_result) ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun (label, (r : Runner.result)) ->
          Printf.bprintf buf "%s %d %d %.6f\n" label r.Runner.ops
            r.Runner.cycles r.Runner.ops_per_sec)
        t.Mm_experiments.Driver.t_results;
      check Alcotest.string
        (Printf.sprintf "fig1 digest, parallel task %d" i)
        fig1_golden_digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    tasks

let () =
  Alcotest.run "mm_workloads"
    [
      ("runner", [ Alcotest.test_case "barrier phases" `Quick test_barrier_phases ]);
      ("system", [ Alcotest.test_case "smoke all kinds" `Quick test_system_smoke ]);
      ( "allocators",
        [
          Alcotest.test_case "ptmalloc returns memory" `Quick
            test_ptmalloc_returns_memory;
          Alcotest.test_case "tcmalloc caches" `Quick test_tcmalloc_caches;
          Alcotest.test_case "ptmalloc arenas" `Quick test_ptmalloc_arena_small;
        ] );
      ( "micro",
        [
          Alcotest.test_case "all cells smoke" `Slow test_micro_all_cells_smoke;
          Alcotest.test_case "linux flat, corten scales" `Quick
            test_linux_mmap_flat_corten_scales;
          Alcotest.test_case "fig13 directions" `Quick test_fig13_directions;
        ] );
      ( "apps",
        [
          Alcotest.test_case "jvm threads" `Quick test_jvm_lower_on_corten;
          Alcotest.test_case "metis scales" `Quick test_metis_scales;
          Alcotest.test_case "dedup allocator effect" `Slow
            test_dedup_allocator_effect;
          Alcotest.test_case "parsec parity" `Quick test_parsec_parity;
        ] );
      ( "lmbench",
        [ Alcotest.test_case "directions" `Quick test_lmbench_directions ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "line roundtrip" `Quick test_trace_line_roundtrip;
          Alcotest.test_case "deterministic gen" `Quick
            test_trace_generate_deterministic;
          Alcotest.test_case "consistent across systems" `Quick
            test_trace_replay_consistent_across_systems;
          Alcotest.test_case "corten faster on churn" `Quick
            test_trace_replay_corten_faster_on_churn;
          Alcotest.test_case "forks roundtrip" `Quick
            test_trace_forks_roundtrip;
          Alcotest.test_case "forks replay consistent" `Quick
            test_trace_forks_replay_consistent;
        ] );
      ( "memory",
        [
          Alcotest.test_case "radixvm overhead" `Quick
            test_radixvm_memory_overhead;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fig1 digest" `Slow test_fig1_golden_digest;
          Alcotest.test_case "fig1 digest via parallel driver" `Slow
            test_fig1_golden_digest_parallel;
        ] );
    ]
