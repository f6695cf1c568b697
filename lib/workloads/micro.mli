(** The five microbenchmarks of the paper's Table 3, in low-contention
    (thread-private arenas) and high-contention (random chunks of one
    shared region) variants, with warmed-up steady-state measurement. *)

type bench = Mmap | Mmap_pf | Unmap_virt | Unmap | Pf

val bench_name : bench -> string
val all_benches : bench list

type contention = Low | High

val contention_name : contention -> string

val supported : System.kind -> bench -> bool
(** NrOS has no demand paging: PF and unmap-virt do not apply. *)

val run :
  ?isa:Mm_hal.Isa.t ->
  kind:System.kind ->
  ncpus:int ->
  bench:bench ->
  contention:contention ->
  iters:int ->
  unit ->
  Runner.result option
(** One (system, bench, contention, cores) cell: setup, warmup and
    measurement in one simulation world separated by barriers; [None]
    when the system does not support the bench. *)
