(** The abstract page-table tree of the Atomic Tree Spec: a complete
    [arity]-ary tree in heap order (root 0; children of [i] are
    [arity*i + 1 ..]). *)

type t

val create : arity:int -> depth:int -> t
val root : int
val node_count : t -> int
val parent : t -> int -> int option
val children : t -> int -> int list
val is_leaf : t -> int -> bool

val path : t -> int -> int list
(** Root to node, inclusive. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Strict ancestry. *)

val related : t -> int -> int -> bool
(** Equal, ancestor, or descendant — the pairs the paper's non-overlap
    invariant forbids from being simultaneously write-held. *)

val subtree_preorder : t -> int -> int list
val child_toward : t -> from:int -> target:int -> int
