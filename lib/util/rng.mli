(** Deterministic, splittable xorshift64* pseudo-random number generator.

    All randomness in the reproduction flows through explicitly seeded
    generators so that every experiment is bit-reproducible. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val next : t -> int
(** Next non-negative pseudo-random integer (uniform over 62 bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [lo, hi]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val split : t -> t
(** Derive an independent generator; the parent advances by one step. *)
