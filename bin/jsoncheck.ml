(* jsoncheck — validate a JSON file (used by check.sh to smoke-test the
   mmrepro run --json/--trace/--wallclock and serve --json outputs).

     jsoncheck FILE              parse FILE, exit 0 iff well-formed
     jsoncheck --results FILE    additionally require the mmrepro run
                                 --json shape: a "results" array of
                                 {id, cell, ops, cycles, ops_per_sec}
     jsoncheck --chrome FILE     additionally require Chrome trace_event
                                 shape: a top-level "traceEvents" array
                                 whose entries carry name/ph/pid/tid
     jsoncheck --wallclock FILE  additionally require the mmrepro run
                                 --wallclock shape: "jobs", a "wallclock"
                                 array of {id, seconds_seq, seconds_par,
                                 speedup, cells}, per-cell seconds that
                                 sum to the entry seconds, the seq/par
                                 totals, the critical-path summary
                                 (max_cell_seconds_seq/_par) and the
                                 host's nproc and peak_rss_mb *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check_chrome json =
  let open Mm_obs.Json in
  match member "traceEvents" json with
  | None -> fail "no traceEvents field"
  | Some evs -> (
    match to_list_opt evs with
    | None -> fail "traceEvents is not an array"
    | Some [] -> fail "traceEvents is empty"
    | Some items ->
      List.iteri
        (fun i item ->
          List.iter
            (fun field ->
              if member field item = None then
                fail "traceEvents[%d] missing %S" i field)
            [ "name"; "ph"; "pid"; "tid" ])
        items;
      Printf.printf "ok: %d trace events\n" (List.length items))

let check_results json =
  let open Mm_obs.Json in
  match Option.bind (member "results" json) to_list_opt with
  | None -> fail "no \"results\" array"
  | Some items ->
    List.iteri
      (fun i item ->
        List.iter
          (fun field ->
            match member field item with
            | Some (String _) -> ()
            | _ -> fail "results[%d] missing string %S" i field)
          [ "id"; "cell" ];
        List.iter
          (fun field ->
            match member field item with
            | Some (Int _) -> ()
            | _ -> fail "results[%d] missing integer %S" i field)
          [ "ops"; "cycles" ];
        match member "ops_per_sec" item with
        | Some (Int _ | Float _) -> ()
        | _ -> fail "results[%d] missing or non-numeric \"ops_per_sec\"" i)
      items;
    Printf.printf "ok: %d results\n" (List.length items)

let check_wallclock json =
  let open Mm_obs.Json in
  let number = function Some (Int _ | Float _) -> true | _ -> false in
  let as_float = function
    | Some (Int i) -> float_of_int i
    | Some (Float f) -> f
    | _ -> nan
  in
  (match member "jobs" json with
  | Some (Int j) when j >= 1 -> ()
  | Some _ -> fail "jobs is not a positive integer"
  | None -> fail "no jobs field");
  (match member "nproc" json with
  | Some (Int n) when n >= 1 -> ()
  | Some _ -> fail "nproc is not a positive integer"
  | None -> fail "no nproc field");
  if not (as_float (member "peak_rss_mb" json) > 0.) then
    fail "missing or non-positive \"peak_rss_mb\"";
  List.iter
    (fun field ->
      if not (number (member field json)) then
        fail "missing or non-numeric %S" field)
    [
      "total_seconds_seq"; "total_seconds_par"; "speedup";
      "max_cell_seconds_seq"; "max_cell_seconds_par";
    ];
  (match member "max_cell_label" json with
  | Some (String _) -> ()
  | _ -> fail "missing string \"max_cell_label\"");
  match member "wallclock" json with
  | None -> fail "no wallclock field"
  | Some entries -> (
    match to_list_opt entries with
    | None -> fail "wallclock is not an array"
    | Some [] -> fail "wallclock is empty"
    | Some items ->
      let ncells = ref 0 in
      List.iteri
        (fun i item ->
          (match member "id" item with
          | Some (String _) -> ()
          | _ -> fail "wallclock[%d] missing string \"id\"" i);
          List.iter
            (fun field ->
              if not (number (member field item)) then
                fail "wallclock[%d] missing or non-numeric %S" i field)
            [ "seconds_seq"; "seconds_par"; "speedup" ];
          match Option.bind (member "cells" item) to_list_opt with
          | None -> fail "wallclock[%d] missing \"cells\" array" i
          | Some [] -> fail "wallclock[%d] has an empty \"cells\" array" i
          | Some cells ->
            ncells := !ncells + List.length cells;
            let sum = ref 0.0 in
            List.iteri
              (fun j cell ->
                (match member "label" cell with
                | Some (String _) -> ()
                | _ ->
                  fail "wallclock[%d].cells[%d] missing string \"label\"" i j);
                List.iter
                  (fun field ->
                    if not (number (member field cell)) then
                      fail "wallclock[%d].cells[%d] missing or non-numeric %S"
                        i j field)
                  [ "seconds_seq"; "seconds_par" ];
                sum := !sum +. as_float (member "seconds_seq" cell))
              cells;
            (* Entry seconds are defined as the sum of its cell seconds
               (rendering is not timed); allow float-printing slack. *)
            let entry = as_float (member "seconds_seq" item) in
            let tol = Float.max 1e-6 (0.001 *. Float.abs entry) in
            if Float.abs (!sum -. entry) > tol then
              fail
                "wallclock[%d]: cells sum to %.9fs but the entry reports %.9fs"
                i !sum entry)
        items;
      Printf.printf "ok: %d wallclock entries (%d cells)\n"
        (List.length items) !ncells)

let () =
  let mode, path =
    match Array.to_list Sys.argv with
    | [ _; "--chrome"; p ] -> (`Chrome, p)
    | [ _; "--wallclock"; p ] -> (`Wallclock, p)
    | [ _; "--results"; p ] -> (`Results, p)
    | [ _; p ] -> (`Plain, p)
    | _ -> fail "usage: jsoncheck [--chrome|--wallclock|--results] FILE"
  in
  match Mm_obs.Json.parse_file path with
  | Error msg -> fail "%s: invalid JSON: %s" path msg
  | Ok json -> (
    match mode with
    | `Chrome -> check_chrome json
    | `Wallclock -> check_wallclock json
    | `Results -> check_results json
    | `Plain -> Printf.printf "ok: %s parses\n" path)
