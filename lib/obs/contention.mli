(** Per-lock contention profile: serialized (wait) cycles, hold time,
    acquisition counts. Locks register lazily on first profiled use. *)

type entry = {
  id : int;
  kind : Event.lock_kind;
  name : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable max_wait : int;
  mutable hold_cycles : int;
}

val fresh_id : unit -> int
(** A unique lock id; called once per lock at creation. The counter is
    reset by {!reset} (i.e. at {!Trace.start}), so identical runs started
    after a reset see identical ids. *)

val fresh_ids : int -> int
(** [fresh_ids n] reserves [n] consecutive ids and returns the first:
    the ids [n] calls of {!fresh_id} would have returned, in order. *)

val get : id:int -> kind:Event.lock_kind -> name:(unit -> string) -> entry
(** Find the entry for a lock, creating (and naming) it on first use. *)

val acquired : entry -> wait:int -> unit
val released : entry -> held:int -> unit

val name_of : int -> string
val ranked : unit -> entry list
(** All profiled locks, most serialized cycles first (deterministic). *)

val top : unit -> entry option
val report : ?limit:int -> unit -> string
val reset : unit -> unit
