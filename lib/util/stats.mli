(** Statistics helpers for the benchmark harness. *)

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation. *)

val median : float array -> float
val geomean : float array -> float

val ops_per_second : ops:int -> cycles:int -> float
(** Throughput at the nominal simulated clock (3 GHz), used to present
    cycle counts as per-second rates in the tables. *)

val speedup : baseline:float -> value:float -> float
