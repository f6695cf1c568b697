(* Fixed-size occupancy bitsets packed into a byte buffer of their own
   (a page-table page, a metadata array and a radix node each keep one
   beside their slots). Bit [i] is bit [i land 31] of the little-endian
   32-bit word at byte [4 * (i lsr 5)]; 32-bit words keep every
   operation in native ints. *)

let create n = Bytes.make (4 * ((n + 31) lsr 5)) '\000'

let word b w = Int32.to_int (Bytes.get_int32_le b (w lsl 2)) land 0xFFFF_FFFF
let set_word b w x = Bytes.set_int32_le b (w lsl 2) (Int32.of_int x)

let mem b i = (word b (i lsr 5) lsr (i land 31)) land 1 = 1

let add b i =
  let w = i lsr 5 in
  set_word b w (word b w lor (1 lsl (i land 31)))

let remove b i =
  let w = i lsr 5 in
  set_word b w (word b w land lnot (1 lsl (i land 31)))

let clear b = Bytes.fill b 0 (Bytes.length b) '\000'

let fill b ~from ~stop =
  let i = ref from in
  while !i < stop do
    let w = !i lsr 5 in
    let hi = if (w + 1) lsl 5 < stop then 32 else stop - (w lsl 5) in
    let lo = !i land 31 in
    let mask = ((1 lsl (hi - lo)) - 1) lsl lo in
    set_word b w (word b w lor mask);
    i := (w + 1) lsl 5
  done

(* Count trailing zeros of a nonzero 32-bit word: isolate the lowest set
   bit and index a de Bruijn table with the top five bits of its product. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz x =
  Char.code
    (String.unsafe_get debruijn
       ((((x land (-x)) * 0x077C_B531) land 0xFFFF_FFFF) lsr 27))

let[@inline] found w x ~stop =
  let i = (w lsl 5) + ctz x in
  if i < stop then i else stop

(* The first set bit of [x] (the word at index [w]) or of a later word
   up to the one holding bit [stop - 1], as an index below [stop]; [stop]
   when there is none. Reads no word past the range's last. *)
let rec scan b w x ~stop =
  if x <> 0 then found w x ~stop
  else if (w + 1) lsl 5 >= stop then stop
  else scan b (w + 1) (word b (w + 1)) ~stop

let next b i ~stop =
  if i >= stop then stop
  else
    let w = i lsr 5 in
    scan b w (word b w land (-1 lsl (i land 31))) ~stop

(* [next] over the union of two bitsets of equal size. *)
let rec scan2 a b w x ~stop =
  if x <> 0 then found w x ~stop
  else if (w + 1) lsl 5 >= stop then stop
  else scan2 a b (w + 1) (word a (w + 1) lor word b (w + 1)) ~stop

let next_union a b i ~stop =
  if i >= stop then stop
  else
    let w = i lsr 5 in
    scan2 a b w ((word a w lor word b w) land (-1 lsl (i land 31))) ~stop

let iter b ~from ~stop f =
  let i = ref (next b from ~stop) in
  while !i < stop do
    f !i;
    i := next b (!i + 1) ~stop
  done
