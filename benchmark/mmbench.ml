(* mmbench: the repository's end-to-end benchmark.

     mmbench [--workload W[,W...]] [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE]

   Prints the [sim_digest] of the simulated outputs, every metric as
   "<workload> <metric> <value> <unit>", and, as the last line, one JSON
   object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.
   Several workloads run one after another, each in its own child process
   (so peak RSS and GC counts stay per workload); the last line then maps
   each workload to its object. Exits 1 on a correctness violation, 2 on
   a usage error.

   [--setup-only] only prepares the one workload's inputs and exits: the
   child process an untraced run times [setup_s] with. [--calibrate]
   runs the calibration probe ([Bench.probe]) and exits: the child
   process a run times before every round. *)

open Mmbench_lib
module Json = Mm_obs.Json

let usage () =
  prerr_endline
    "usage: mmbench [--workload W[,W...]] [--seed N] [--seconds S] [--trace \
     0|1] [--json FILE]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  exit 2

let to_json (o : Bench.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             o.metrics) );
    ]

let write_json path j = Option.iter (fun path -> Json.write_file ~path j) path

let run_one (w : Workload.t) ~seed ~seconds ~trace ~json =
  let setup =
    Bench.time_setup
      [|
        Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
        "--setup-only";
      |]
  in
  let calibrate () = Bench.child_cpu [| Sys.executable_name; "--calibrate" |] in
  let o = Bench.run w ~seed ~seconds ~trace ~setup ~calibrate in
  Printf.printf "%s sim_digest %s\n" w.name o.sim_digest;
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" w.name n v u) o.metrics;
  let j = to_json o in
  write_json json j;
  print_endline (Json.to_string j);
  exit (if o.correct then 0 else 1)

(* One child per workload, one at a time; their output passes through. *)
let run_children names ~args ~json =
  let results =
    List.map
      (fun name ->
        let argv =
          Array.of_list (Sys.executable_name :: "--workload" :: name :: args)
        in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        let j =
          match Json.parse !last with Ok j -> j | Error _ -> Json.Null
        in
        (name, ok, j))
      names
  in
  let j = Json.Obj (List.map (fun (n, _, j) -> (n, j)) results) in
  write_json json j;
  print_endline (Json.to_string j);
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

let () =
  let workloads = ref (List.map (fun (w : Workload.t) -> w.name) Workload.all) in
  let seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let json = ref None and args = ref [] and setup_only = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workloads := String.split_on_char ',' v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg v;
      args := !args @ [ "--seed"; v ];
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s
      | _ -> usage ());
      args := !args @ [ "--seconds"; v ];
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      args := !args @ [ "--trace"; v ];
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | "--setup-only" :: rest ->
      setup_only := true;
      parse rest
    | [ "--calibrate" ] ->
      Bench.probe ();
      exit 0
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let find name =
    match List.find_opt (fun (w : Workload.t) -> w.name = name) Workload.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()
  in
  match List.map find !workloads with
  | [ w ] when !setup_only ->
    let (_ : unit -> Workload.round) = w.prepare ~seed:!seed in
    ()
  | [ w ] -> run_one w ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
  | _ -> run_children !workloads ~args:!args ~json:!json
