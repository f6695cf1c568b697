(** Registry of named counters and log2-bucketed histograms. Global (any
    layer registers by name) and deterministic (enumeration is sorted by
    name). *)

type counter
type histogram

val counter : string -> counter
(** Find or create the counter with this name. *)

val inc : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val histogram : string -> histogram
(** Find or create the histogram with this name. *)

val unregistered : string -> histogram
(** A fresh histogram outside the registry: it never appears in
    {!histograms}/{!dump} and is not shared by name, so per-run latency
    recorders (e.g. the serving mode's per-op histograms) stay
    independent across runs in one process. *)

val observe : histogram -> int -> unit

val bucket_of : int -> int
(** The log2 bucket a value lands in: [floor (log2 v)] for [v >= 1], 0
    for [v <= 0]. *)

val mean : histogram -> float
val samples : histogram -> int
val total : histogram -> int
val max_value : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] is an upper bound on the q-th quantile: the inclusive
    upper edge [2^(b+1)-1] of the log2 bucket [b] holding the observation
    at rank [ceil (q * n)], clamped to the exact observed maximum.

    Error bound: if the exact rank-[ceil (q*n)] value is [x >= 1], the
    returned [r] satisfies [x <= r <= max 1 (2*x - 1)] — never an
    underestimate, and strictly less than [2x]. An exact value of [0]
    reports at most [1] (bucket 0's edge). Tail quantiles (p99, p999)
    are therefore correct to within a factor of 2, while [mean], [total],
    [max_value] and [samples] are exact. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val histograms : unit -> (string * histogram) list

val reset : unit -> unit

val dump : unit -> string
(** Plain-text rendering of the whole registry. *)
