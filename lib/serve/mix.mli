(** Session mixes for the open-loop serving mode: small statistical
    descriptions of one class of short-lived tenant (arrival rate, think
    time, burst shape). All means are in simulated cycles. *)

type t = {
  name : string;
  desc : string;
  interarrival : int;  (** mean cycles between session arrivals, per CPU *)
  think : int;  (** mean cycles between operations within a session *)
  min_pages : int;  (** per-burst mapping size, pages *)
  max_pages : int;
  bursts : int;  (** mmap/touch/munmap bursts per session *)
  mprotect_prob : float;  (** chance a burst read-only-seals before unmap *)
  fork : bool;
      (** fork a child per session: the child COW-breaks the parent's
          hot pages, runs its bursts privately, and is destroyed *)
  mlock_prob : float;
      (** chance a burst wires its region for its lifetime (reclaim
          backends only; the coin is only drawn when positive, so
          pre-reclaim mixes keep their RNG streams) *)
  pressure_every : int;
      (** sessions between page-out daemon pressure waves, 0 = never *)
  pressure_pages : int;  (** reclaim target of one wave *)
}

val short : t
val mixed : t

val fork_fleet : t
(** The process-fleet mix: every session forks a child off a long-lived
    per-CPU parent, COW-breaks the inherited hot pages, runs one small
    private burst, and exits — a pre-fork server's lifecycle. *)

val reclaim_storm : t
(** Fault-heavy bursts racing periodic page-out daemon pressure waves,
    a quarter of the regions wired for their lifetime — evictions push
    refaults into the fault/session tails; wired regions must survive
    untouched. *)

val all : t list
val names : string list

val find : string -> (t, string) result
(** [find name] is the mix named [name], or [Error msg] where [msg]
    already includes the valid-name listing — drivers print it
    verbatim (the {!Mm_workloads.System.Registry.find} convention). *)
