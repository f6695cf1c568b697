(** Binary min-heap of scheduler events keyed by (time, tie key,
    sequence number). The tie key lets a scheduler policy permute
    same-time events (all-zero keys reproduce the historical (time, seq)
    order exactly); the sequence number makes the ordering total, which
    makes the whole simulation deterministic for any fixed key
    assignment. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val min_time : 'a t -> int
(** Earliest queued time, [max_int] when empty. Allocation-free peek for
    the scheduler's serialize fast path. *)

val push : 'a t -> time:int -> key:int -> seq:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest entry (its time and value). *)
