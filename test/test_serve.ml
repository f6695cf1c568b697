(* The open-loop serving mode: registry error paths, seed determinism
   (equal seeds give byte-identical reports, different seeds different
   arrival orders), the batched policy's measurable effect on a
   broadcast-shootdown backend's tail, its non-effect on CortenMM's
   precise targeting, and oracle consistency of a batched world. *)

module Serve = Mm_serve.Serve
module Mix = Mm_serve.Mix
module Tlb = Mm_tlb.Tlb
module System = Mm_workloads.System
module Trace = Mm_workloads.Trace
module Diff = Mm_workloads.Diff
module Json = Mm_obs.Json

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- Registries -- *)

let test_mix_registry () =
  (match Mix.find "mixed" with
  | Ok m -> check Alcotest.string "found" "mixed" m.Mix.name
  | Error msg -> Alcotest.failf "mixed should resolve: %s" msg);
  match Mix.find "bogus" with
  | Ok _ -> Alcotest.fail "bogus mix resolved"
  | Error msg ->
    List.iter
      (fun name ->
        check Alcotest.bool
          (Printf.sprintf "error lists %s" name)
          true
          (contains ~needle:name msg))
      Mix.names

let test_policy_registry () =
  (match Serve.find_policy "immediate" with
  | Ok Tlb.Immediate -> ()
  | Ok _ -> Alcotest.fail "immediate resolved to the wrong policy"
  | Error msg -> Alcotest.failf "immediate should resolve: %s" msg);
  (match Serve.find_policy "batched" with
  | Ok (Tlb.Batched _) -> ()
  | Ok _ -> Alcotest.fail "batched resolved to the wrong policy"
  | Error msg -> Alcotest.failf "batched should resolve: %s" msg);
  match Serve.find_policy "bogus" with
  | Ok _ -> Alcotest.fail "bogus policy resolved"
  | Error msg ->
    List.iter
      (fun name ->
        check Alcotest.bool
          (Printf.sprintf "error lists %s" name)
          true
          (contains ~needle:name msg))
      Serve.policy_names

(* -- Determinism -- *)

let run_json ~seed =
  let mix = Mix.short in
  let systems =
    [ Result.get_ok (System.Registry.find "linux");
      Result.get_ok (System.Registry.find "cortenmm-adv") ]
  in
  let reports =
    Serve.run_matrix ~systems ~mix ~policies:Serve.policies ~ncpus:4
      ~sessions:400 ~seed ()
  in
  Json.to_string (Serve.report_json ~mix ~ncpus:4 ~sessions:400 ~seed reports)

let test_same_seed_byte_identical () =
  check Alcotest.string "equal seeds, byte-identical JSON" (run_json ~seed:42)
    (run_json ~seed:42)

let test_different_seed_differs () =
  check Alcotest.bool "different seeds, different reports" false
    (String.equal (run_json ~seed:42) (run_json ~seed:43))

(* -- The fork_fleet mix -- *)

let run_fleet_json ~seed =
  let mix = Mix.fork_fleet in
  let systems =
    [ Result.get_ok (System.Registry.find "linux");
      Result.get_ok (System.Registry.find "cortenmm-adv") ]
  in
  let reports =
    Serve.run_matrix ~systems ~mix ~policies:Serve.policies ~ncpus:2
      ~sessions:120 ~seed ()
  in
  ( reports,
    Json.to_string
      (Serve.report_json ~mix ~ncpus:2 ~sessions:120 ~seed reports) )

(* Every fork_fleet session forks exactly once and COW-breaks the hot
   pages; the fork histogram must carry one sample per session and the
   whole report must be byte-stable across reruns (the -j gate in
   check.sh covers cross-domain determinism on top). *)
let test_fork_fleet_forks_every_session () =
  let reports, j1 = run_fleet_json ~seed:42 in
  let _, j2 = run_fleet_json ~seed:42 in
  check Alcotest.string "equal seeds, byte-identical JSON" j1 j2;
  List.iter
    (fun (r : Serve.report) ->
      check Alcotest.int
        (Printf.sprintf "%s/%s: one fork per session" r.Serve.r_system
           r.Serve.r_policy)
        r.Serve.r_sessions r.Serve.r_fork.Serve.s_count;
      check Alcotest.bool
        (Printf.sprintf "%s/%s: forks cost cycles" r.Serve.r_system
           r.Serve.r_policy)
        true
        (r.Serve.r_fork.Serve.s_p50 > 0))
    reports

(* Non-fork mixes must not fork: their histogram stays empty, so the
   pre-fleet report shape is unchanged. *)
let test_short_mix_never_forks () =
  let e = Result.get_ok (System.Registry.find "linux") in
  let r =
    Serve.run ~backend:e.System.Registry.r_backend ~mix:Mix.short
      ~policy_name:"immediate" ~policy:Tlb.Immediate ~ncpus:2 ~sessions:60
      ~seed:7 ()
  in
  check Alcotest.int "no fork samples" 0 r.Serve.r_fork.Serve.s_count

(* -- The batched policy's effect -- *)

let run_one ~system ~policy_name ~sessions =
  let e = Result.get_ok (System.Registry.find system) in
  let policy = Result.get_ok (Serve.find_policy policy_name) in
  Serve.run
    ~backend:e.System.Registry.r_backend ~mix:Mix.mixed ~policy_name ~policy
    ~ncpus:4 ~sessions ~seed:42 ()

(* Linux broadcasts synchronous IPIs on every unmap: deferral coalesces
   them (fewer IPIs, bounded worst stall) and the shorter lock holds pull
   the open-loop session tail down. *)
let test_batched_moves_linux_tail () =
  let imm = run_one ~system:"linux" ~policy_name:"immediate" ~sessions:1000
  and bat = run_one ~system:"linux" ~policy_name:"batched" ~sessions:1000 in
  check Alcotest.bool
    (Printf.sprintf "fewer ipis (%d < %d)" bat.Serve.r_ipis imm.Serve.r_ipis)
    true
    (bat.Serve.r_ipis < imm.Serve.r_ipis);
  check Alcotest.bool "immediate never stalls a free" true
    (imm.Serve.r_worst_stall = 0 && imm.Serve.r_batched = 0);
  check Alcotest.bool "batched defers and stalls" true
    (bat.Serve.r_batched > 0 && bat.Serve.r_worst_stall > 0
    && bat.Serve.r_batch_flushes > 0);
  check Alcotest.bool
    (Printf.sprintf "session p99 moved (%d < %d)" bat.Serve.r_session.Serve.s_p99
       imm.Serve.r_session.Serve.s_p99)
    true
    (bat.Serve.r_session.Serve.s_p99 < imm.Serve.r_session.Serve.s_p99)

(* CortenMM's per-core VA + precise target tracking leaves (almost) no
   remote CPU to shoot down for private sessions, so there is nothing
   for the batch to coalesce — the asymmetry that makes the comparison
   interesting. *)
let test_corten_unaffected () =
  let imm =
    run_one ~system:"cortenmm-adv" ~policy_name:"immediate" ~sessions:400
  and bat =
    run_one ~system:"cortenmm-adv" ~policy_name:"batched" ~sessions:400
  in
  check Alcotest.int "no IPIs either way" imm.Serve.r_ipis bat.Serve.r_ipis;
  check Alcotest.int "identical p50" imm.Serve.r_session.Serve.s_p50
    bat.Serve.r_session.Serve.s_p50

(* -- Oracle consistency of a batched world --

   Replaying one trace on a batched CortenMM and the stock backends must
   produce identical observable state: deferral changes when remote TLBs
   flush and frames free, never what the address space maps. *)

let test_oracle_batched_consistent () =
  let corten_batched =
    Serve.with_policy ~policy:Serve.batched_default
      (System.backend_of_kind (System.Corten Cortenmm.Config.adv))
  in
  let linux_batched =
    Serve.with_policy ~policy:Serve.batched_default
      (System.backend_of_kind System.Linux)
  in
  let stock = System.backend_of_kind System.Linux in
  let trace =
    Trace.generate ~profile:Trace.Mixed ~ncpus:4 ~ops_per_cpu:120 ~seed:42
  in
  match
    Diff.run ~check_every:8
      ~backends:[ stock; corten_batched; linux_batched ]
      trace
  with
  | Ok n -> check Alcotest.bool "checked some ops" true (n > 0)
  | Error d -> Alcotest.failf "batched world diverged: %s" (Diff.describe d)

(* -- Golden digest of the fork and exit paths --

   A small fork_fleet round on every registered system under both
   policies: forks stream-copy page tables, COW faults break pages, and
   exits tear whole spaces down, so this pins the host-side scans of
   fork, exit and partial munmap. Simulated behaviour is deterministic;
   host-only performance work must leave the digest unchanged. *)

let fork_fleet_golden_digest = "19a4146d263b7004920deacba0706da2"

let test_fork_fleet_golden_digest () =
  let mix = Mix.fork_fleet in
  let reports =
    Serve.run_matrix ~systems:System.Registry.all ~mix
      ~policies:Serve.policies ~ncpus:4 ~sessions:150 ~seed:11 ()
  in
  let json =
    Json.to_string
      (Serve.report_json ~mix ~ncpus:4 ~sessions:150 ~seed:11 reports)
  in
  check Alcotest.string "fork_fleet report digest" fork_fleet_golden_digest
    (Digest.to_hex (Digest.string json))

let () =
  Alcotest.run "mm_serve"
    [
      ( "registry",
        [
          Alcotest.test_case "mix lookup errors" `Quick test_mix_registry;
          Alcotest.test_case "policy lookup errors" `Quick
            test_policy_registry;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed byte-identical" `Quick
            test_same_seed_byte_identical;
          Alcotest.test_case "different seed differs" `Quick
            test_different_seed_differs;
        ] );
      ( "fork_fleet",
        [
          Alcotest.test_case "one fork per session, byte-stable" `Quick
            test_fork_fleet_forks_every_session;
          Alcotest.test_case "non-fork mixes never fork" `Quick
            test_short_mix_never_forks;
        ] );
      ( "policy",
        [
          Alcotest.test_case "batched moves the linux tail" `Quick
            test_batched_moves_linux_tail;
          Alcotest.test_case "cortenmm unaffected" `Quick
            test_corten_unaffected;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "batched world consistent" `Quick
            test_oracle_batched_consistent;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fork_fleet digest" `Quick
            test_fork_fleet_golden_digest;
        ] );
    ]
