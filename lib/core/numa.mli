(** NUMA memory policies, stored in the per-PTE metadata array — the
    paper's stated future work (§4.5), implemented here as an extension.
    Policies mirror Linux's mempolicy modes. *)

type policy =
  | Default (* allocate on the faulting CPU's node *)
  | Bind of int
  | Preferred of int
  | Interleave of int list (* round-robin by page index *)

val choose : policy:policy -> local_node:int -> vpn:int -> nnodes:int -> int
(** The node a fault at page [vpn] should allocate from (out-of-range
    nodes fall back to the local one). *)
