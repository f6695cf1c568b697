(** An [n]-entry table stored as 64-entry chunks, each allocated on the
    first store of a value other than the table's [absent]. An
    unallocated chunk is the shared empty array and reads as [absent].
    [absent] should be an immediate value (a constant constructor such
    as [None]): stores compare against it physically, and storing it
    into an unallocated chunk allocates nothing.

    Indices outside [[0, length)] raise [Invalid_argument], as for
    arrays. *)

type 'a t

val create : int -> absent:'a -> 'a t
(** [create n ~absent]: every entry reads [absent], no chunk allocated. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
(** Allocates the entry's chunk if it has none and the value is not
    [absent]. *)

val fill : 'a t -> 'a -> unit
(** Set every entry to one value, building each chunk whole (one
    [Array.make] per chunk). Filling with [absent] is {!reset}. *)

val reset : 'a t -> unit
(** Every entry back to [absent], dropping every chunk. *)
