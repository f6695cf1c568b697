(** Refcounted backing objects for anonymous memory, with shadow-chain
    parents — the explicit ownership graph behind COW fork (DragonFly /
    Mach VM-object style).

    Every address space tops a shadow chain; resident anonymous pages
    are recorded (vpn -> pfn) in the object that owns them and looked up
    by walking the chain youngest-first. [fork_push] pushes one fresh
    shadow per side so the pre-fork pages become shared beneath both; a
    COW break installs the private copy in the faulting side's top
    shadow; a chain parent whose reference count returns to 1 collapses
    into its only surviving shadow.

    The object graph is bookkeeping, not mechanism: it charges no
    simulated cycles, never parks, and does not own frame lifetimes
    (PTE map counts do). State transitions are announced as
    [Obj_*] events on the {!Mm_obs.Trace} bus, for traces and the live
    invariant checker. *)

type t

val create_anon : unit -> t
(** A fresh chain-bottom anonymous object with one reference (the
    creating address space). *)

val fork_push : t -> t * t
(** [fork_push top] implements fork on the object graph: two fresh
    shadows over [top], which loses the forking space's direct
    reference. Returns [(parent_top, child_top)]. *)

val unref : t -> unit
(** Drop one reference. At zero the object dies (and unrefs its chain
    parent, cascading); at one with a single surviving shadow child the
    object collapses into that shadow. *)

val install : t -> vpn:int -> pfn:int -> unit
(** Record [vpn] as owned by this (top) object. *)

val lookup : t -> vpn:int -> (t * int) option
(** Chain walk from the top; the youngest record wins. *)

val forget : t -> vpn:int -> unit
(** Drop the youngest record for [vpn] (its frame lost its last
    mapping). No-op if the chain has no record. *)

val promote : t -> vpn:int -> unit
(** Move the youngest record for [vpn] to the chain top — a COW fault
    resolved in place, so the page is now exclusively the top's. *)

val refs : t -> int
val parent : t -> t option
val depth : t -> int
(** Chain length from this object to the bottom (>= 1). *)

val page_slots : t -> int
(** Number of pages recorded in this object alone (not the chain). *)

val is_dead : t -> bool

val reset_ids : unit -> unit
(** Reset the domain-local id counter (one simulation world per parallel
    task; see [Mm_workloads.Runner.reset_world_state]). *)

val pager : dev:Blockdev.t -> phys:Mm_phys.Phys.t -> Pager.ops
(** The anonymous/shadow pager provider: pages out to swap blocks on
    [dev] ([put_pages] returns the allocated blocks; [get_page] takes a
    block as its page index and frees it after the read). *)
