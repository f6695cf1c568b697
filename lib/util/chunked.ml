(* An n-entry table kept as 64-entry chunks. A chunk is allocated by the
   first store of a value other than the table's [absent]; until then it
   is the shared [[||]] and every entry in it reads as [absent]. A store
   compares against [absent] physically, so an immediate [absent] (a
   constant constructor, [None]) never allocates a chunk for itself. *)

let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let slot i = i land (chunk_size - 1)

type 'a t = { absent : 'a; length : int; chunks : 'a array array }

let create n ~absent =
  if n < 0 then invalid_arg "Chunked.create";
  let nchunks = (n + chunk_size - 1) lsr chunk_bits in
  { absent; length = n; chunks = Array.make nchunks [||] }

let length t = t.length

(* Entries in chunk [k]: [chunk_size], or fewer in a short last chunk. *)
let chunk_length t k = min chunk_size (t.length - (k lsl chunk_bits))

let check t i name = if i < 0 || i >= t.length then invalid_arg name

let get t i =
  check t i "Chunked.get";
  let c = t.chunks.(i lsr chunk_bits) in
  if Array.length c = 0 then t.absent else c.(slot i)

let set t i v =
  check t i "Chunked.set";
  let k = i lsr chunk_bits in
  let c = t.chunks.(k) in
  if Array.length c <> 0 then c.(slot i) <- v
  else if v != t.absent then begin
    let c = Array.make (chunk_length t k) t.absent in
    c.(slot i) <- v;
    t.chunks.(k) <- c
  end

let reset t = Array.fill t.chunks 0 (Array.length t.chunks) [||]

let fill t v =
  if v == t.absent then reset t
  else
    for k = 0 to Array.length t.chunks - 1 do
      t.chunks.(k) <- Array.make (chunk_length t k) v
    done
