(** ISA-independent decoded page-table entry. A [Leaf] above level 1 is a
    huge-page mapping. *)

type t =
  | Absent
  | Table of { pfn : int }
  | Leaf of {
      pfn : int;
      perm : Perm.t;
      accessed : bool;
      dirty : bool;
      global : bool;
    }

val leaf :
  ?accessed:bool ->
  ?dirty:bool ->
  ?global:bool ->
  pfn:int ->
  perm:Perm.t ->
  unit ->
  t

val is_present : t -> bool
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
