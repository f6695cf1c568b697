(** Fixed-capacity ring buffer. Pushing beyond the capacity overwrites
    the oldest entries, keeping the tail of the stream. *)

type 'a t

val create : capacity:int -> 'a t
val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Entries currently held (≤ capacity). *)

val dropped : 'a t -> int
(** Entries overwritten so far. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
