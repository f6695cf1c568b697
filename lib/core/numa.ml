(* NUMA memory policies — the paper's stated future work (§4.5): "We plan
   to incorporate Linux's NUMA policy into CortenMM by storing the state
   of NUMA policy in the per-PTE metadata array." This module implements
   exactly that: the policy lives in the [M_alloc] metadata entries, and
   the page-fault handler consults it when allocating the backing frame.

   The policies mirror Linux's mempolicy modes. *)

type policy =
  | Default (* allocate on the faulting CPU's node (local) *)
  | Bind of int (* always allocate on this node *)
  | Preferred of int (* prefer this node (same as Bind in the model) *)
  | Interleave of int list (* round-robin by page index *)

(* The node a fault at page [vpn] should allocate from, for a CPU on
   [local_node], on a machine with [nnodes] nodes. *)
let choose ~policy ~local_node ~vpn ~nnodes =
  let clamp n = if n >= 0 && n < nnodes then n else local_node in
  match policy with
  | Default -> local_node
  | Bind n | Preferred n -> clamp n
  | Interleave [] -> local_node
  | Interleave nodes -> clamp (List.nth nodes (vpn mod List.length nodes))
