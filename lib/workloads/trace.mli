(** MM operation traces: a portable text format (regions referenced by
    symbolic ids so a trace replays on any system regardless of its VA
    allocator), a synthetic generator with workload profiles, and a
    replayer driving any of the evaluated systems. *)

type op =
  | T_mmap of { id : int; len : int; writable : bool }
  | T_munmap of { id : int }
  | T_touch of { id : int; page : int; write : bool }
  | T_mprotect of { id : int; writable : bool }
  | T_fork of { child : int }  (** the executing process is the parent *)
  | T_exit
  | T_write of { id : int; page : int; value : int }
      (** store a data token (touches for write first) *)
  | T_read of { id : int; page : int }  (** load the page's data token *)
  | T_mlock of { id : int }  (** populate + wire the whole region *)
  | T_munlock of { id : int }  (** unwire the whole region *)
  | T_pressure of { pages : int }
      (** wake the page-out daemon to reclaim [pages] pages *)

type entry = { cpu : int; proc : int; op : op }
(** [proc] is the process executing the operation; 0 is the root.
    Serialized as a trailing ["@<proc>"], omitted for process 0, so
    pre-fork traces round-trip byte-identically. *)

type t = { ncpus : int; entries : entry array }

exception Parse_error of int * string

val entry_to_string : entry -> string
val entry_of_string : line:int -> string -> entry
val save : t -> string -> unit
val load : string -> t

type profile = Churn | Faults | Mixed | Forks | Reclaim

val profile_name : profile -> string

val generate : profile:profile -> ncpus:int -> ops_per_cpu:int -> seed:int -> t
(** Deterministic synthetic trace: [Churn] = allocator-like
    map/touch/unmap cycles; [Faults] = few large regions, many touches;
    [Mixed] = a blend with occasional mprotects; [Forks] = per-CPU
    process trees (depth <= 3) of fork / COW write / read / exit, every
    forked process exiting before its CPU's stream ends; [Reclaim] =
    value traffic under mlock/munlock and pressure storms (format v3
    ops, capability-gated on backends without a page-out daemon). *)

type replay_stats = {
  result : Runner.result;
  mmaps : int;
  munmaps : int;
  touches : int;
  forks : int;
  faults_denied : int;
}

val replay : ?isa:Mm_hal.Isa.t -> kind:System.kind -> t -> replay_stats
(** Replay the trace's per-CPU streams, each on the process named by its
    entries ([fork] creating child instances via {!System.fork}, [exit]
    destroying them); unknown/defunct region or process references are
    skipped, denied accesses counted. *)
