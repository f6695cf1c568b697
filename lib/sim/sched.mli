(** Scheduler tie-break policies.

    The engine orders its event queue by (time, tie key, sequence
    number) and asks the world's policy for one key per event push. A
    policy therefore controls exactly the simulation's schedule freedom
    — the order of same-time ready fibers and of [serialize] re-entries
    — and nothing across distinct virtual times.

    A policy value is stateful (it counts decisions and, for [random],
    records the drawn keys); create a fresh one per world. *)

type t

val name : t -> string
(** Human-readable policy description, for harness reporting. *)

val fifo : unit -> t
(** Key 0 for every push: the order degenerates to (time, seq), which is
    bit-for-bit the engine's historical deterministic order. This is the
    default policy of {!Engine.create}. *)

val random : ?amplitude:int -> seed:int -> unit -> t
(** Keys drawn uniformly from [0, amplitude) (default 8) by a seeded
    {!Mm_util.Rng}; same-time ties are permuted, everything else is
    untouched. The drawn keys are recorded for {!recorded}/{!replay}. *)

val replay : int array -> t
(** Feed back a recorded key sequence, one key per push in push order;
    pushes beyond the end get key 0. Replaying the keys of a prior run
    reproduces that run exactly (the simulation is a deterministic
    function of the key sequence); an edited key array is simply a
    different — still deterministic — schedule. *)

val next_key : t -> int
(** The next tie key. Called by the engine once per event push. *)

val recorded : t -> int array
(** The keys handed out so far ([random] policies only; empty for
    [fifo]/[replay]). *)
