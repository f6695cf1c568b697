(** Capture-aware stdout.

    Experiments print through this module instead of [Stdlib]/[Printf]
    so a parallel driver can divert each task's output into a
    domain-local buffer ([capture]) and replay the buffers in submission
    order — keeping the merged stream byte-identical to a sequential
    run. With no capture active, output goes straight to stdout. *)

val print_string : string -> unit
val print_newline : unit -> unit
val print_endline : string -> unit
val printf : ('a, unit, string, unit) format4 -> 'a

val capturing : unit -> bool
(** Is a capture active on this domain? *)

val capture : (unit -> 'a) -> 'a * string
(** [capture f] runs [f] with this domain's output diverted to a fresh
    buffer and returns [f]'s result together with everything it printed.
    The previous sink is restored on exit; captures nest. If [f] raises,
    the partial output is discarded with the exception. *)
