(* The checker slot of the {!Mm_obs.Trace} bus, as [benchmark/probe.ml]
   uses it: [set] hands the callback each event's payload, and the
   payload constructors are re-exported by their names. Everything else
   subscribes to the bus directly. The benchmark-only change that moves
   probe.ml onto the bus deletes this module. *)

include Mm_obs.Event.Kinds

let set f = Mm_obs.Trace.set_checker (fun e -> f e.Mm_obs.Event.payload)
let clear = Mm_obs.Trace.clear_checker
