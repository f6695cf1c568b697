(* Small statistics helpers used by the benchmark harness. *)

let mean xs =
  match Array.length xs with
  | 0 -> nan
  | n -> Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  match Array.length xs with
  | 0 | 1 -> 0.0
  | n ->
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)

let median xs = percentile xs 50.0

let geomean xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let acc = Array.fold_left (fun a x -> a +. log x) 0.0 xs in
    exp (acc /. float_of_int n)

(* Throughput conversion: the simulator reports virtual cycles; we present
   results as operations per simulated second assuming a 3 GHz clock, purely
   for readability of the tables. *)
let cycles_per_second = 3_000_000_000.0

let ops_per_second ~ops ~cycles =
  if cycles <= 0 then 0.0
  else float_of_int ops /. (float_of_int cycles /. cycles_per_second)
