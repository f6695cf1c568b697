(* Fixed-size occupancy bitsets packed into a byte buffer, so a bitmap can
   live in spare bytes of a buffer its owner already has (a page-table
   node keeps its bits after the raw entry words). Bit [i] is bit
   [i land 31] of the little-endian 32-bit word at byte [off + 4 * (i lsr 5)];
   32-bit words keep every operation in native ints. *)

let bytes_for n = 4 * ((n + 31) lsr 5)
let create n = Bytes.make (bytes_for n) '\000'

let word b ~off w =
  Int32.to_int (Bytes.get_int32_le b (off + (w lsl 2))) land 0xFFFF_FFFF

let set_word b ~off w x = Bytes.set_int32_le b (off + (w lsl 2)) (Int32.of_int x)

let mem b ~off i = (word b ~off (i lsr 5) lsr (i land 31)) land 1 = 1

let add b ~off i =
  let w = i lsr 5 in
  set_word b ~off w (word b ~off w lor (1 lsl (i land 31)))

let remove b ~off i =
  let w = i lsr 5 in
  set_word b ~off w (word b ~off w land lnot (1 lsl (i land 31)))

let clear b ~off ~n = Bytes.fill b off (bytes_for n) '\000'

let fill b ~off ~from ~stop =
  let i = ref from in
  while !i < stop do
    let w = !i lsr 5 in
    let hi = if (w + 1) lsl 5 < stop then 32 else stop - (w lsl 5) in
    let lo = !i land 31 in
    let mask = ((1 lsl (hi - lo)) - 1) lsl lo in
    set_word b ~off w (word b ~off w lor mask);
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
let rec scan b ~off w x ~stop =
  if x <> 0 then found w x ~stop
  else if (w + 1) lsl 5 >= stop then stop
  else scan b ~off (w + 1) (word b ~off (w + 1)) ~stop

let next b ~off i ~stop =
  if i >= stop then stop
  else
    let w = i lsr 5 in
    scan b ~off w (word b ~off w land (-1 lsl (i land 31))) ~stop

(* [next] over the union of two bitsets of equal size. *)
let rec scan2 a ~aoff b ~boff w x ~stop =
  if x <> 0 then found w x ~stop
  else if (w + 1) lsl 5 >= stop then stop
  else
    scan2 a ~aoff b ~boff (w + 1)
      (word a ~off:aoff (w + 1) lor word b ~off:boff (w + 1))
      ~stop

let next_union a ~aoff b ~boff i ~stop =
  if i >= stop then stop
  else
    let w = i lsr 5 in
    scan2 a ~aoff b ~boff w
      ((word a ~off:aoff w lor word b ~off:boff w) land (-1 lsl (i land 31)))
      ~stop

let iter b ~off ~from ~stop f =
  let i = ref (next b ~off from ~stop) in
  while !i < stop do
    f !i;
    i := next b ~off (!i + 1) ~stop
  done
