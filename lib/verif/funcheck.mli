(** Functional correctness of the cursor operations (the paper's P2)
    against a flat reference model — exhaustive over all short operation
    sequences — plus linearizability checking of concurrent transaction
    histories (the §3.3 atomicity semantics). *)

type op =
  | Op_mmap of int * int * Mm_hal.Perm.t
  | Op_munmap of int * int
  | Op_touch of int * bool
  | Op_protect of int * int * Mm_hal.Perm.t

val op_to_string : op -> string

type exhaustive_result = {
  sequences : int;
  checks : int;
  failures : (op list * int * string) list;
}

val exhaustive :
  ?isa:Mm_hal.Isa.t -> cfg:Cortenmm.Config.t -> depth:int -> unit ->
  exhaustive_result
(** Run every operation sequence of length [depth] over the universe,
    comparing [query] of every page against the reference model after
    every operation, and checking page-table well-formedness. *)

type lin_result = {
  total_ops : int;
  matched : bool;
  detail : string;
}

val lin_check :
  cfg:Cortenmm.Config.t -> ncpus:int -> ops_per_thread:int -> seed:int ->
  lin_result
(** Random per-thread operation streams run concurrently with completion
    times recorded; replaying them serially in completion order must
    produce the same user-visible final state (two-phase locking
    serializes conflicts; disjoint operations commute). *)
