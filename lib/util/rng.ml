(* Deterministic xorshift64* pseudo-random number generator.

   Every stochastic component of the reproduction (workload generators,
   schedules, property tests that need auxiliary randomness) draws from an
   explicitly seeded [Rng.t] so that simulation runs are bit-reproducible.
   The generator is splittable: [split] derives an independent stream, which
   lets each virtual CPU own a private stream without cross-CPU coupling. *)

type t = { mutable state : int64 }

let create ~seed =
  (* A zero state would make xorshift degenerate; nudge it. *)
  let s = Int64.of_int seed in
  { state = (if Int64.equal s 0L then 0x9E3779B97F4A7C15L else s) }

let next_int64 t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545F4914F6CDD1DL

let next t = Int64.to_int (next_int64 t) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = next t land 1 = 1

let float t =
  (* 53 bits of mantissa out of the 62 available. *)
  float_of_int (next t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let split t =
  let s = next_int64 t in
  { state = (if Int64.equal s 0L then 0x6A09E667F3BCC909L else s) }
