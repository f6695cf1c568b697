(* The deterministic fork-join pool and the byte-identity contract of
   every driver built on it: results (and captured output, JSON, oracle
   verdicts, schedcheck outcomes) must be identical for any -j. *)

module Par = Mm_par.Par
module Driver = Mm_experiments.Driver
module Registry = Mm_experiments.Registry
module Runner = Mm_workloads.Runner
module Trace = Mm_workloads.Trace
module Diff = Mm_workloads.Diff
module System = Mm_workloads.System
module Serve = Mm_serve.Serve
module S = Mm_schedcheck.Schedcheck

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

(* -- count_of_string -- *)

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_count_of_string () =
  (match Par.count_of_string ~flag:"-j" "4" with
  | Ok n -> check int "4" 4 n
  | Error m -> Alcotest.failf "rejected 4: %s" m);
  (match Par.count_of_string ~flag:"-j" " 8 " with
  | Ok n -> check int "trimmed" 8 n
  | Error m -> Alcotest.failf "rejected ' 8 ': %s" m);
  List.iter
    (fun (flag, s, frag) ->
      match Par.count_of_string ~flag s with
      | Ok n -> Alcotest.failf "accepted %S as %d" s n
      | Error m ->
        List.iter
          (fun needle ->
            if not (contains_substring ~needle m) then
              Alcotest.failf "error for %s %S lacks %S: %s" flag s needle m)
          [ frag; flag ])
    [
      ("-j", "0", "at least 1");
      ("--cpus", "-3", "at least 1");
      ("--every", "x", "positive integer");
      ("--sessions", "", "positive integer");
      ("--seeds", "4.5", "positive integer");
    ]

(* -- Ordered merge and emission -- *)

let squares ~jobs n =
  let emitted = ref [] in
  let results =
    Par.run_timed
      ~emit:(fun t -> emitted := t.Par.value :: !emitted)
      ~jobs
      (List.init n (fun i () ->
           (* Stagger completion so later-submitted tasks tend to finish
              first under real parallelism; the merge must hide that. *)
           if i < 2 then Unix.sleepf 0.02;
           i * i))
  in
  (List.map (fun t -> t.Par.value) results, List.rev !emitted)

let test_ordered_merge () =
  let expected = List.init 16 (fun i -> i * i) in
  let r1, e1 = squares ~jobs:1 16 in
  let r8, e8 = squares ~jobs:8 16 in
  check (Alcotest.list int) "results -j1" expected r1;
  check (Alcotest.list int) "results -j8" expected r8;
  check (Alcotest.list int) "emit order -j1" expected e1;
  check (Alcotest.list int) "emit order -j8" expected e8

let test_jobs_exceed_tasks () =
  let r = Par.map ~jobs:8 (fun x -> x + 1) [ 10; 20; 30 ] in
  check (Alcotest.list int) "3 tasks on 8 jobs" [ 11; 21; 31 ] r

let test_timed_nonnegative () =
  List.iter
    (fun t ->
      if t.Par.seconds < 0. then Alcotest.fail "negative task seconds")
    (Par.run_timed ~jobs:2 (List.init 4 (fun i () -> i)))

(* -- Exception propagation: the lowest-indexed failure wins -- *)

exception Boom of int

let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      match
        Par.run ~jobs
          (List.init 8 (fun i () ->
               if i = 2 || i = 5 then raise (Boom i) else i))
      with
      | _ -> Alcotest.failf "-j%d: no exception raised" jobs
      | exception Boom i ->
        check int (Printf.sprintf "-j%d first failure" jobs) 2 i)
    [ 1; 4 ]

let test_jobs_zero_rejected () =
  match Par.run ~jobs:0 [ (fun () -> ()) ] with
  | _ -> Alcotest.fail "jobs:0 accepted"
  | exception Invalid_argument _ -> ()

(* -- ~order is a pure scheduling hint: any permutation of the claim
      order leaves results and emission in submission order -- *)

let test_order_hint () =
  let n = 12 in
  let expected = List.init n (fun i -> i * 3) in
  List.iter
    (fun order ->
      let emitted = ref [] in
      let results =
        Par.run_timed
          ~emit:(fun t -> emitted := t.Par.value :: !emitted)
          ~order ~jobs:3
          (List.init n (fun i () -> i * 3))
      in
      check (Alcotest.list int) "results in submission order" expected
        (List.map (fun t -> t.Par.value) results);
      check (Alcotest.list int) "emission in submission order" expected
        (List.rev !emitted))
    [
      Array.init n (fun k -> n - 1 - k) (* reversed *);
      Array.init n (fun k -> (k * 5) mod n) (* 5 coprime to 12: scrambled *);
      Array.init n Fun.id (* identity *);
    ];
  (* Non-permutations are rejected up front. *)
  List.iter
    (fun order ->
      match Par.run_timed ~order ~jobs:2 [ (fun () -> 0); (fun () -> 1) ] with
      | _ -> Alcotest.fail "bad order accepted"
      | exception Invalid_argument _ -> ())
    [ [| 0 |]; [| 0; 0 |]; [| 0; 2 |]; [| -1; 0 |] ]

(* With ~order, a failure in a late-submitted task must not skip
   earlier-submitted tasks (the sequential run would have completed
   them): the lowest-submitted failure still wins. *)
let test_order_failure_lowest_submitted () =
  List.iter
    (fun jobs ->
      match
        Par.run_timed ~jobs
          ~order:(Array.init 8 (fun k -> 7 - k))
          (List.init 8 (fun i () ->
               if i = 2 || i = 5 then raise (Boom i) else i))
      with
      | _ -> Alcotest.failf "-j%d: no exception raised" jobs
      | exception Boom i ->
        check int (Printf.sprintf "-j%d first failure" jobs) 2 i)
    [ 1; 4 ]

(* -- Byte identity: the experiment driver -- *)

let entries_of ids =
  List.map
    (fun id ->
      match Registry.find id with
      | Ok e -> e
      | Error m -> Alcotest.fail m)
    ids

let test_driver_identical () =
  let entries = entries_of [ "tab2"; "fig13" ] in
  let r1 = Driver.run_entries ~collect:true ~jobs:1 entries in
  let r4 = Driver.run_entries ~collect:true ~jobs:4 entries in
  List.iter2
    (fun (a : Driver.task_result) (b : Driver.task_result) ->
      check string (a.Driver.t_id ^ " id") a.Driver.t_id b.Driver.t_id;
      check string (a.Driver.t_id ^ " output") a.Driver.t_output
        b.Driver.t_output;
      if a.Driver.t_results <> b.Driver.t_results then
        Alcotest.failf "%s: collected results differ across -j" a.Driver.t_id;
      if String.length a.Driver.t_output = 0 then
        Alcotest.failf "%s: empty captured output" a.Driver.t_id)
    r1 r4

(* -- A [Run] entry through the driver: its stream is the header, what
   the function printed and a blank line; it reports one cell labelled
   with its id; it collects exactly what a direct call collects. -- *)

let printing_entry =
  {
    Registry.id = "printer";
    title = "prints and collects";
    body =
      Registry.Run
        (fun () ->
          Mm_util.Out.printf "line one\n";
          ignore (Runner.result ~ops:3 ~cycles:300);
          Mm_util.Out.printf "line two\n";
          ignore (Runner.result ~ops:5 ~cycles:700));
  }

(* What a [Run] entry's function prints and collects when called
   directly, from a freshly reset world. *)
let run_directly (e : Registry.entry) =
  match e.Registry.body with
  | Registry.Cells _ -> Alcotest.failf "%s is not a Run entry" e.Registry.id
  | Registry.Run f ->
    Runner.reset_world_state ();
    Runner.start_collecting ();
    Runner.set_label e.Registry.id;
    let results, printed =
      Mm_util.Out.capture (fun () ->
          f ();
          Runner.stop_collecting ())
    in
    (printed, results)

let test_run_entry_one_cell () =
  let entries = printing_entry :: entries_of [ "tab2"; "ext-swapd" ] in
  let expected = List.map run_directly entries in
  List.iter
    (fun jobs ->
      List.iter2
        (fun (t : Driver.task_result) (printed, results) ->
          let what s = Printf.sprintf "-j%d %s %s" jobs t.Driver.t_id s in
          check string (what "output")
            (Printf.sprintf "=== %s: %s ===\n\n%s\n" t.Driver.t_id
               t.Driver.t_title printed)
            t.Driver.t_output;
          check
            (Alcotest.list string)
            (what "cells") [ t.Driver.t_id ]
            (List.map (fun c -> c.Driver.ct_label) t.Driver.t_cells);
          if t.Driver.t_results <> results then
            Alcotest.failf "%s" (what "collected results differ"))
        (Driver.run_entries ~collect:true ~jobs entries)
        expected)
    [ 1; 4 ];
  match expected with
  | (_, []) :: _ -> Alcotest.fail "printer collected nothing"
  | _ -> ()

(* -- Byte identity: cell-decomposed entries. A reduced fig14 sweep
   (the heaviest cell-based entry) must render the same bytes and
   collect the same results whether its cells run on one domain or
   four. -- *)

let reduced_fig14_entry =
  {
    Registry.id = "fig14";
    title = "reduced multithreaded microbenchmark sweep";
    body =
      Registry.Cells
        (fun () ->
          Mm_experiments.Fig_micro.fig14_plan
            ~systems:
              [ System.Linux; System.Corten Cortenmm.Config.adv ]
            ~benches:[ Mm_workloads.Micro.Mmap_pf ]
            ~cores:[ 1; 2 ] ~iters:5 ());
  }

let test_cells_identical () =
  let run jobs =
    Driver.run_entries ~collect:true ~jobs [ reduced_fig14_entry ]
  in
  match (run 1, run 4) with
  | [ a ], [ b ] ->
    check string "output -j1 = -j4" a.Driver.t_output b.Driver.t_output;
    if a.Driver.t_results <> b.Driver.t_results then
      Alcotest.fail "collected results differ across -j";
    if List.length a.Driver.t_cells < 2 then
      Alcotest.fail "expected a multi-cell decomposition";
    if
      List.map (fun c -> c.Driver.ct_label) a.Driver.t_cells
      <> List.map (fun c -> c.Driver.ct_label) b.Driver.t_cells
    then Alcotest.fail "cell labels differ across -j"
  | _ -> Alcotest.fail "expected exactly one task result per run"

(* A raising cell fails its entry with the lowest-submitted exception,
   exactly as the sequential render would have seen it. *)
let test_cell_failure_lowest_index () =
  let entry =
    {
      Registry.id = "boom";
      title = "raising cells";
      body =
        Registry.Cells
          (fun () ->
            let cells =
              List.init 6 (fun i ->
                  Mm_experiments.Plan.cell
                    ~label:(Printf.sprintf "cell%d" i)
                    ~weight:(float_of_int i)
                    (fun () ->
                      if i = 1 || i = 3 then raise (Boom i) else None))
            in
            { Mm_experiments.Plan.cells; render = (fun _ -> ()) });
    }
  in
  List.iter
    (fun jobs ->
      match Driver.run_entries ~jobs [ entry ] with
      | _ -> Alcotest.failf "-j%d: no exception raised" jobs
      | exception Boom i ->
        check int (Printf.sprintf "-j%d first failing cell" jobs) 1 i)
    [ 1; 4 ]

(* -- Byte identity: serving matrix -- *)

let test_serve_matrix_identical () =
  let systems =
    List.filteri (fun i _ -> i < 2) System.Registry.all
  in
  let policies =
    List.map
      (fun n ->
        match Serve.find_policy n with
        | Ok p -> (n, p)
        | Error m -> Alcotest.fail m)
      Serve.policy_names
  in
  let go jobs =
    let reports =
      Serve.run_matrix ~jobs ~systems ~mix:(List.hd Mm_serve.Mix.all)
        ~policies ~ncpus:4 ~sessions:400 ~seed:7 ()
    in
    Mm_obs.Json.to_string
      (Serve.report_json ~mix:(List.hd Mm_serve.Mix.all) ~ncpus:4
         ~sessions:400 ~seed:7 reports)
  in
  check string "serve json -j1 = -j3" (go 1) (go 3)

(* -- Byte identity: differential oracle -- *)

let broken_munmap (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-broken-munmap"
    let munmap _ ~addr:_ ~len:_ = Ok ()
  end)

let test_oracle_identical () =
  let trace =
    Trace.generate ~profile:Trace.Mixed ~ncpus:4 ~ops_per_cpu:80 ~seed:42
  in
  let clean1 = Diff.run ~jobs:1 trace in
  let clean3 = Diff.run ~jobs:3 trace in
  if clean1 <> clean3 then Alcotest.fail "clean verdict differs across -j";
  let linux = System.backend_of_kind System.Linux in
  let backends = [ linux; broken_munmap linux ] in
  let churn =
    Trace.generate ~profile:Trace.Churn ~ncpus:2 ~ops_per_cpu:80 ~seed:42
  in
  match
    (Diff.run ~check_every:1 ~jobs:1 ~backends churn,
     Diff.run ~check_every:1 ~jobs:2 ~backends churn)
  with
  | Ok _, _ | _, Ok _ -> Alcotest.fail "broken munmap not caught"
  | Error a, Error b ->
    check string "divergence -j1 = -j2" (Diff.describe a) (Diff.describe b)

(* -- Byte identity: schedule exploration -- *)

let outcome_eq name a b =
  match (a, b) with
  | S.Clean { seeds = x }, S.Clean { seeds = y } ->
    check int (name ^ " seeds") x y
  | ( S.Violation { sched_seed = sa; keys = ka; violations = va; _ },
      S.Violation { sched_seed = sb; keys = kb; violations = vb; _ } ) ->
    check int (name ^ " seed") sa sb;
    check (Alcotest.list int) (name ^ " keys") (Array.to_list ka)
      (Array.to_list kb);
    check (Alcotest.list string) (name ^ " violations") va vb
  | _ -> Alcotest.failf "%s: verdict kind differs across -j" name

let test_schedcheck_identical () =
  let clean_cfg =
    {
      S.protocol = Cortenmm.Config.adv;
      cpus = 3;
      ops_per_cpu = 8;
      workload_seed = 42;
      mutant = S.M_none;
    }
  in
  outcome_eq "clean"
    (S.explore ~seeds:6 ~jobs:1 clean_cfg)
    (S.explore ~seeds:6 ~jobs:4 clean_cfg);
  let mutant_cfg =
    {
      S.protocol = Cortenmm.Config.rw;
      cpus = 4;
      ops_per_cpu = 12;
      workload_seed = 42;
      mutant = S.M_rw_skip_handoff;
    }
  in
  outcome_eq "mutant"
    (S.explore ~seeds:10 ~jobs:1 mutant_cfg)
    (S.explore ~seeds:10 ~jobs:4 mutant_cfg)

let () =
  Alcotest.run "mm_par"
    [
      ( "pool",
        [
          Alcotest.test_case "count_of_string" `Quick test_count_of_string;
          Alcotest.test_case "ordered merge + emit" `Quick test_ordered_merge;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "timed nonnegative" `Quick test_timed_nonnegative;
          Alcotest.test_case "lowest-index failure" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "jobs 0 rejected" `Quick test_jobs_zero_rejected;
          Alcotest.test_case "order hint" `Quick test_order_hint;
          Alcotest.test_case "order + lowest-submitted failure" `Quick
            test_order_failure_lowest_submitted;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "experiment driver" `Slow test_driver_identical;
          Alcotest.test_case "cell-decomposed fig14" `Slow
            test_cells_identical;
          Alcotest.test_case "cell failure" `Quick
            test_cell_failure_lowest_index;
          Alcotest.test_case "serve matrix" `Slow test_serve_matrix_identical;
          Alcotest.test_case "differential oracle" `Slow
            test_oracle_identical;
          Alcotest.test_case "schedcheck explore" `Slow
            test_schedcheck_identical;
          Alcotest.test_case "Run entry as one cell" `Quick
            test_run_entry_one_cell;
        ] );
    ]
