(** Differential cross-backend oracle: replay one {!Trace.t} on every
    registered backend in separate simulation worlds and compare the
    observable state — per-page {!Backend.page_state} over live regions,
    typed error outcomes, per-op postconditions and {!System.mem_stats}
    invariants — after every [check_every] ops. Capability differences
    (no mprotect, eager backing) mask exactly the observations they
    legitimately change; everything else must agree. *)

type outcome = O_ok | O_err of Mm_hal.Errno.t | O_skip

type divergence = {
  d_op : int;  (** index of the offending op in the trace *)
  d_backend_a : string;
  d_backend_b : string;  (** equals [d_backend_a] for a solo invariant *)
  d_what : string;
}

val describe : divergence -> string

val compare_page_states :
  ?check_writable:bool ->
  ?check_resident:bool ->
  region:string ->
  Backend.page_state array ->
  Backend.page_state array ->
  string list
(** [compare_page_states ~region a b] describes every per-page mismatch
    between two equally sized probes of the same region ([region] labels
    the messages). [check_writable] / [check_resident] (both default
    [true]) mask the comparisons that capability differences legitimately
    change; callers comparing the same backend against itself — the
    schedule-exploration harness — keep both on. *)

val run :
  ?isa:Mm_hal.Isa.t ->
  ?check_every:int ->
  ?jobs:int ->
  ?cow_mutant:bool ->
  ?reclaim_mutant:bool ->
  ?backends:System.backend list ->
  Trace.t ->
  (int, divergence) result
(** [Ok nops] when every backend agrees on the whole trace; otherwise
    the earliest divergence by op index. [check_every] defaults to 16;
    [backends] to every backend of {!System.Registry.all}, in registry
    order (the first entry is the reference). [jobs] (default 1) shards
    the per-backend replays across domains; the verdict is identical for
    any value.

    Fork ops replay as {!System.fork}: the child process inherits the
    parent's regions, a per-(proc, region, page) value model written by
    the trace's [write] ops and checked at its [read] ops proves COW
    isolation, and a post-fork solo postcondition requires parent and
    child page states to agree over every inherited region.

    [cow_mutant] (default [false]) arms an injected CortenMM fork bug —
    clone_for_fork skips the parent-side write-protect — which the
    value model must catch at the exact first child read observing a
    leaked parent store.

    Format-v3 reclaim ops ([mlock]/[munlock]/[pressure]) are
    capability-masked: backends without a page-out daemon skip them,
    and residency is then only compared between backends with reclaim
    parity. [reclaim_mutant] (default [false]) arms an injected pager
    bug — put_pages skips the dirty writeback, losing the page's data
    token at page-out — which the value model must catch at the exact
    first read observing the lost token. *)
