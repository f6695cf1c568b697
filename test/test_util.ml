(* Tests for mm_util: RNG determinism, statistics, alignment arithmetic,
   chunked tables, table formatting. *)

open Mm_util

let check = Alcotest.check

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  check Alcotest.bool "different seeds differ" true (xs <> ys)

let test_rng_zero_seed () =
  let r = Rng.create ~seed:0 in
  (* A zero state would be a fixed point of xorshift; must be avoided. *)
  check Alcotest.bool "zero seed still random" true
    (Rng.next r <> Rng.next r || Rng.next r <> 0)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:99 in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.next parent) in
  let ys = List.init 20 (fun _ -> Rng.next child) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let rng_bounds_prop =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let rng_int_in_prop =
  QCheck.Test.make ~name:"Rng.int_in stays in range" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 1000))
    (fun (seed, lo, width) ->
      let r = Rng.create ~seed in
      let hi = lo + width in
      let x = Rng.int_in r ~lo ~hi in
      x >= lo && x <= hi)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check Alcotest.bool "mean empty is nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "stddev constant" 0.0
    (Stats.stddev [| 5.; 5.; 5. |]);
  check (Alcotest.float 1e-6) "stddev" (sqrt 2.5)
    (Stats.stddev [| 1.; 2.; 3.; 4.; 5. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  check (Alcotest.float 1e-9) "p0" 10. (Stats.percentile xs 0.);
  check (Alcotest.float 1e-9) "p100" 40. (Stats.percentile xs 100.);
  check (Alcotest.float 1e-9) "median" 25. (Stats.median xs)

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 2.0 (Stats.geomean [| 1.; 2.; 4. |])

let test_ops_per_second () =
  let v = Stats.ops_per_second ~ops:3 ~cycles:3_000_000_000 in
  check (Alcotest.float 1e-9) "3 ops in 1 simulated second" 3.0 v

let test_align_basics () =
  check Alcotest.int "down" 0x1000 (Align.down 0x1fff 0x1000);
  check Alcotest.int "up" 0x2000 (Align.up 0x1001 0x1000);
  check Alcotest.int "up exact" 0x1000 (Align.up 0x1000 0x1000);
  check Alcotest.bool "aligned" true (Align.is_aligned 0x2000 0x1000);
  check Alcotest.bool "unaligned" false (Align.is_aligned 0x2001 0x1000);
  check Alcotest.int "log2" 12 (Align.log2 4096);
  check Alcotest.int "div_round_up" 3 (Align.div_round_up 9 4)

let test_align_rejects_non_pow2 () =
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Align.down: bad alignment") (fun () ->
      ignore (Align.down 10 3))

let align_prop =
  QCheck.Test.make ~name:"align up/down bracket the value" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 0 16))
    (fun (x, sh) ->
      let a = 1 lsl sh in
      Align.down x a <= x && x <= Align.up x a
      && Align.is_aligned (Align.down x a) a
      && Align.is_aligned (Align.up x a) a
      && Align.up x a - Align.down x a < 2 * a)

(* Chunked tables against plain arrays: random get/set/fill/reset
   sequences at sizes around the 64-entry chunk, with indices one past
   each end, which both must reject. [0] is the absent value. *)
type chunked_op = Get of int | Set of int * int | Fill of int | Reset

let chunked_prop =
  let gen =
    QCheck.Gen.(
      let* n = oneofl [ 0; 1; 63; 64; 65; 512 ] in
      let idx = int_range (-1) n and value = int_bound 3 in
      let op =
        frequency
          [
            (4, map (fun i -> Get i) idx);
            (4, map2 (fun i v -> Set (i, v)) idx value);
            (1, map (fun v -> Fill v) value);
            (1, return Reset);
          ]
      in
      let* ops = list_size (int_bound 300) op in
      return (n, ops))
  in
  let print (n, ops) =
    Printf.sprintf "n=%d: %s" n
      (String.concat "; "
         (List.map
            (function
              | Get i -> Printf.sprintf "get %d" i
              | Set (i, v) -> Printf.sprintf "set %d %d" i v
              | Fill v -> Printf.sprintf "fill %d" v
              | Reset -> "reset")
            ops))
  in
  (* Both raise [Invalid_argument], or both return equal results. *)
  let agree f g =
    match f () with
    | a -> ( match g () with b -> a = b | exception Invalid_argument _ -> false)
    | exception Invalid_argument _ -> (
      match g () with _ -> false | exception Invalid_argument _ -> true)
  in
  QCheck.Test.make ~name:"Chunked matches a plain array" ~count:500
    (QCheck.make ~print gen) (fun (n, ops) ->
      let t = Chunked.create n ~absent:0 and a = Array.make n 0 in
      List.for_all
        (function
          | Get i -> agree (fun () -> Chunked.get t i) (fun () -> a.(i))
          | Set (i, v) ->
            agree (fun () -> Chunked.set t i v) (fun () -> a.(i) <- v)
          | Fill v ->
            Chunked.fill t v;
            Array.fill a 0 n v;
            true
          | Reset ->
            Chunked.reset t;
            Array.fill a 0 n 0;
            true)
        ops
      && Chunked.length t = n
      && List.for_all (fun i -> Chunked.get t i = a.(i)) (List.init n Fun.id))

let test_tablefmt_render () =
  let s =
    Tablefmt.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* header + rule + 2 rows + empty fragment after trailing newline *)
  check Alcotest.int "5 fragments" 5 (List.length lines);
  (match lines with
  | header :: _ ->
    check Alcotest.bool "header padded" true
      (String.length header >= String.length "name  value")
  | [] -> Alcotest.fail "no output");
  Alcotest.check_raises "row length mismatch"
    (Invalid_argument "Tablefmt.render: row length mismatch") (fun () ->
      ignore (Tablefmt.render ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_tablefmt_numbers () =
  check Alcotest.string "si M" "12.35M" (Tablefmt.fmt_si 12_345_678.0);
  check Alcotest.string "si k" "1.50k" (Tablefmt.fmt_si 1_500.0);
  check Alcotest.string "bytes" "4.00 KiB" (Tablefmt.fmt_bytes 4096);
  check Alcotest.string "speedup" "2.50x" (Tablefmt.fmt_speedup 2.5);
  check Alcotest.string "speedup big" "150x" (Tablefmt.fmt_speedup 150.0)

let () =
  Alcotest.run "mm_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_rng_seed_sensitivity;
          Alcotest.test_case "zero seed" `Quick test_rng_zero_seed;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          QCheck_alcotest.to_alcotest rng_bounds_prop;
          QCheck_alcotest.to_alcotest rng_int_in_prop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "ops_per_second" `Quick test_ops_per_second;
        ] );
      ( "align",
        [
          Alcotest.test_case "basics" `Quick test_align_basics;
          Alcotest.test_case "rejects non-pow2" `Quick
            test_align_rejects_non_pow2;
          QCheck_alcotest.to_alcotest align_prop;
        ] );
      ("chunked", [ QCheck_alcotest.to_alcotest chunked_prop ]);
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "numbers" `Quick test_tablefmt_numbers;
        ] );
    ]
