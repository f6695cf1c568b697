(** The tracing session: per-vCPU event rings behind one global on/off
    switch. When no domain has a session open an instrumentation site pays
    one atomic read ({!on}); recording never advances virtual time, so traced
    and untraced runs produce bit-identical simulation results. *)

val start : ?capacity:int -> unit -> unit
(** Open a session (per-vCPU ring capacity defaults to 65536 events).
    Resets {!Metrics} and {!Contention} — including the lock-id counter —
    so identical runs after [start] yield byte-identical streams. *)

val on : unit -> bool
(** Whether this domain has a session active — the cheap gate every
    instrumentation site checks first. *)

val sessions : unit -> int
(** Process-wide number of domains with a session open; {!start} and
    {!stop} keep it balanced. While it is 0, {!on} answers without the
    domain-local lookup. *)

val emit : time:int -> cpu:int -> Event.payload -> unit
(** Record an event; no-op without a session. *)

val events : unit -> Event.t list
(** The merged stream so far, in emission order. *)

val dropped : unit -> int
(** Events lost to ring wraparound. *)

val stop : unit -> Event.t list
(** Close the session and return the merged stream. *)

val to_text : Event.t list -> string
(** Canonical text form of a stream (one event per line). *)
