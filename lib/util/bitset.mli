(** Fixed-size occupancy bitsets packed into a byte buffer. Indices run
    from [0]; the caller keeps them below the size the buffer was
    created for. Iteration is by {!next}: a scan re-reads the live
    words on every call, so bits set or cleared between calls are seen
    exactly as an index loop would see them. *)

val create : int -> Bytes.t
(** A fresh, empty bitset of [n] bits (a whole number of 32-bit
    words). *)

val mem : Bytes.t -> int -> bool
val add : Bytes.t -> int -> unit
val remove : Bytes.t -> int -> unit

val clear : Bytes.t -> unit
(** Clear every bit. *)

val fill : Bytes.t -> from:int -> stop:int -> unit
(** Set every bit in [[from, stop)]: one call for a run of slots that
    all become occupied. *)

val next : Bytes.t -> int -> stop:int -> int
(** [next b i ~stop] is the first set index in [[i, stop)], or [stop] if
    there is none. It reads only the words holding bits
    [i .. stop - 1]. *)

val next_union : Bytes.t -> Bytes.t -> int -> stop:int -> int
(** {!next} over the union of two bitsets. *)

val iter : Bytes.t -> from:int -> stop:int -> (int -> unit) -> unit
(** [f i] for each set [i] in [[from, stop)], in ascending order. The
    words are re-read after each call, so a bit [f] sets or clears
    further on is seen exactly as an index loop testing each bit as it
    reaches it would see it. *)
