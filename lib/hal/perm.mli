(** Access permissions of a virtual page, including the software
    copy-on-write marker and the Intel MPK protection-key tag. *)

type t = {
  read : bool;
  write : bool;
  execute : bool;
  user : bool;
  cow : bool;
  mpk_key : int;
}

val make :
  ?read:bool ->
  ?write:bool ->
  ?execute:bool ->
  ?user:bool ->
  ?cow:bool ->
  ?mpk_key:int ->
  unit ->
  t

val of_flags :
  read:bool ->
  write:bool ->
  execute:bool ->
  user:bool ->
  cow:bool ->
  mpk_key:int ->
  t
(** [make] with every flag given: the PTE decoders' constructor. Both
    return shared values, one per combination of flags and key. Raises
    [Invalid_argument] for a key outside 0..15. *)

val none : t
val r : t
val rw : t
val equal : t -> t -> bool
val with_write : t -> bool -> t
val with_cow : t -> bool -> t
val with_mpk : t -> int -> t

val allows : t -> write:bool -> bool
(** [allows t ~write] tells whether an access (read, or write when [write])
    is permitted. *)

val to_string : t -> string
