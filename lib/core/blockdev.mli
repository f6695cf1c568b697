(** Simulated block device used as swap space; page contents are integer
    tokens so swap round-trips are verifiable. *)

type t

exception Device_full

val write_cost : int

val create : ?nblocks:int -> name:string -> unit -> t
val alloc_block : t -> int
val write_page : t -> block:int -> contents:int -> unit

val read_page : t -> block:int -> int
(** Raises [Invalid_argument] for a block never written. *)

val free_block : t -> block:int -> unit
val has_block : t -> block:int -> bool
val used_blocks : t -> int
val name : t -> string
val reset_ids : unit -> unit
