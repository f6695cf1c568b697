(** A maple-tree-style B-tree over non-overlapping intervals — the
    structure Linux's VMA layer uses [55]: wide (16-slot) nodes, shallow
    trees, lock-free reads. Generic in the item type via [start]/[stop]
    accessors. *)

type 'a t

val create : start:('a -> int) -> stop:('a -> int) -> 'a t
val count : 'a t -> int
val height : 'a t -> int

val find : 'a t -> int -> 'a option
(** The item whose interval contains the address, if any. *)

val insert : 'a t -> 'a -> unit
(** The item's interval must not overlap existing ones (not checked). *)

val remove : 'a t -> int -> bool
(** Remove the item with this exact start key; [false] if absent. *)

val overlapping : 'a t -> lo:int -> hi:int -> 'a list
(** Items intersecting [lo, hi), in start order, with subtree pruning. *)

val iter : 'a t -> ('a -> unit) -> unit

exception Broken of string

val check_invariants : 'a t -> unit
(** Sortedness, non-overlap, node occupancy, equal leaf depth, count. *)
