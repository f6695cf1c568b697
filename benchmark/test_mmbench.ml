(* The benchmark at about 1/100 of its sizes: every metric BENCHMARK.json
   names is emitted and finite in its mode, rounds are deterministic, the
   reclaim value model catches the skip-writeback mutant, and a raising
   world is counted as failed without ending the run. *)

open Mmbench_lib
module Json = Mm_obs.Json
module Backend = Mm_workloads.Backend

let small =
  [
    { Workload.name = "suite";
      prepare = Workload.suite ~entries:[ Workload.registered "fig20" ] () };
    { name = "serve-mixed"; prepare = Workload.serve_mixed ~sessions:50 () };
    { name = "fork-fleet"; prepare = Workload.fork_fleet ~sessions:10 () };
    { name = "reclaim"; prepare = Workload.reclaim ~traces:2 ~ops:500 () };
  ]

let names key =
  let j =
    match Json.parse_file "../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let list k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list_opt) in
  List.map
    (fun m ->
      match Json.member "name" m with
      | Some (Json.String s) -> s
      | _ -> Alcotest.fail "metric without a name")
    (list key j)

(* mmbench times set-up and calibration probes by spawning itself; stubs
   stand in here. *)
let setup ~seconds:_ = [ 1.0 ]
let calibrate () = 1.0

let test_metrics (w : Workload.t) trace () =
  let want = names (if trace then "per_layer" else "end_to_end") in
  let o = Bench.run w ~seed:1 ~seconds:0.0 ~trace ~setup ~calibrate in
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check int) "failed" 0 o.failed;
  Alcotest.(check (list string))
    "metric names" (List.sort compare want)
    (List.sort compare (List.map (fun (n, _, _) -> n) o.metrics));
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then Alcotest.failf "%s = %f" n v)
    o.metrics

let signature (w : Workload.t) = (Bench.run_round (w.prepare ~seed:3)).signature

let test_deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check string) w.name (signature w) (signature w))
    small

let test_mutant_caught () =
  let round = Workload.reclaim ~traces:1 ~ops:2_000 ~mutant:true () ~seed:1 in
  let r = round () in
  if r.mismatches = 0 then
    Alcotest.fail "skip-writeback mutant passed the value model"

(* A backend whose fork raises: each fork-fleet world on it dies at its
   first session. *)
let raising : Workload.system =
  let module B = (val List.assoc "linux" Workload.registry) in
  ( "linux",
    (module struct
      include B

      let fork _ = failwith "injected"
    end : Backend.S) )

let test_raising_world () =
  let w =
    { Workload.name = "fork-fleet";
      prepare = Workload.fork_fleet ~sessions:10 ~systems:[ raising ] () }
  in
  let o = Bench.run w ~seed:1 ~seconds:0.0 ~trace:false ~setup ~calibrate in
  Alcotest.(check bool) "correct" true o.correct;
  if o.failed = 0 || o.failed > o.attempted then
    Alcotest.failf "failed %d of %d" o.failed o.attempted

(* A round that took twice as long while the probe did too reads the
   same calibrated time; the trimmed mean then drops the one round whose
   slowdown the probe missed, and the fastest one. *)
let test_calibrated () =
  let sample seconds probe_s =
    { (Bench.run_round (fun () -> Workload.empty_round ())) with seconds; probe_s }
  in
  let ref_s = Bench.reference_probe_s in
  Alcotest.(check (float 1e-9))
    "host_s" 10.0
    (Bench.calibrated
       (fun s -> s.Bench.seconds)
       [
         sample 10.0 ref_s; sample 20.0 (2.0 *. ref_s); sample 30.0 ref_s;
         sample 9.0 ref_s; sample 10.0 ref_s;
       ])

let () =
  Alcotest.run "mmbench"
    [
      ( "metrics",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.name ^ " end-to-end") `Quick (test_metrics w false);
              Alcotest.test_case (w.name ^ " per-layer") `Quick (test_metrics w true);
            ])
          small );
      ( "correctness",
        [
          Alcotest.test_case "rounds are deterministic" `Quick test_deterministic;
          Alcotest.test_case "skip-writeback mutant caught" `Quick test_mutant_caught;
          Alcotest.test_case "raising world counted" `Quick test_raising_world;
        ] );
      ("host_s", [ Alcotest.test_case "calibrated" `Quick test_calibrated ]);
    ]
