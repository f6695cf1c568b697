(** Power-of-two alignment arithmetic. All [align] arguments must be powers
    of two; the functions raise [Invalid_argument] otherwise. *)

val log2 : int -> int
val down : int -> int -> int
val up : int -> int -> int
val is_aligned : int -> int -> bool
val div_round_up : int -> int -> int
