(** The event bus: one emit path per domain, to at most two subscribers —
    the ring recorder {!start} opens and one checker {!set_checker}
    installs (e.g. [Mm_verif.Live]). When no domain has a subscriber an
    instrumentation site pays one atomic read ({!on}); emitting never
    advances virtual time, so observed and unobserved runs produce
    bit-identical simulation results. *)

val on : unit -> bool
(** Whether this domain has a subscriber — the one guard every
    instrumentation site checks before it builds a payload. *)

val domains : unit -> int
(** Process-wide number of domains with a subscriber; {!start}/{!stop}
    and {!set_checker}/{!clear_checker} keep it balanced. While it is 0,
    {!on} answers without the domain-local lookup. *)

val start : ?capacity:int -> unit -> unit
(** Open the ring recorder (per-vCPU ring capacity defaults to 65536
    events). Resets the sequence number, {!Metrics} and {!Contention} —
    including the lock-id counter — so identical runs after [start]
    yield byte-identical streams. *)

val recording : unit -> bool
(** Whether this domain has the ring recorder open. *)

val set_checker : (Event.t -> unit) -> unit
(** Install this domain's checker, replacing any earlier one. It
    receives every event, in emission order, inside the emitting fiber. *)

val clear_checker : unit -> unit

val emit : time:int -> cpu:int -> Event.payload -> unit
(** Stamp an event and hand it to the subscribers. The ring keeps only
    events of a vCPU ([cpu >= 0]). *)

val events : unit -> Event.t list
(** The ring's merged stream so far, in emission order. *)

val dropped : unit -> int
(** Events lost to ring wraparound. *)

val stop : unit -> Event.t list
(** Close the ring recorder and return its merged stream. *)

val to_text : Event.t list -> string
(** Canonical text form of a stream (one event per line). *)
