(* The abstract page-table tree of the Atomic Tree Spec (paper §5.1).

   A complete [arity]-ary tree of PT pages identified by integers in
   heap order: root is 0, children of [i] are [arity*i + 1 .. arity*i +
   arity]. Each node stands for a PT page; locking a node's subtree is the
   abstract version of locking a virtual address range whose covering PT
   page is that node. *)

type t = { arity : int; nnodes : int }

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let create ~arity ~depth =
  if arity < 2 || depth < 1 then invalid_arg "Tree.create";
  let nnodes = (pow arity depth - 1) / (arity - 1) in
  { arity; nnodes }

let root = 0
let node_count t = t.nnodes

let parent t n =
  if n = 0 then None
  else if n < 0 || n >= t.nnodes then invalid_arg "Tree.parent"
  else Some ((n - 1) / t.arity)

let children t n =
  let first = (t.arity * n) + 1 in
  if first >= t.nnodes then []
  else List.init t.arity (fun i -> first + i)

let is_leaf t n = children t n = []

(* Path from the root to [n], inclusive. *)
let path t n =
  let rec go n acc =
    match parent t n with None -> n :: acc | Some p -> go p (n :: acc)
  in
  go n []

(* Is [a] an ancestor of [d] (strictly)? *)
let is_ancestor t ~anc ~desc =
  let rec go n =
    match parent t n with
    | None -> false
    | Some p -> p = anc || go p
  in
  go desc

let related t a b = a = b || is_ancestor t ~anc:a ~desc:b || is_ancestor t ~anc:b ~desc:a

(* Subtree of [n] in preorder — the DFS order CortenMM_adv locks in. *)
let subtree_preorder t n =
  let rec go n acc = List.fold_left (fun acc c -> go c acc) (n :: acc) (children t n) in
  List.rev (go n [])

(* The child of [n] on the path toward [target] (which must be a strict
   descendant). *)
let child_toward t ~from ~target =
  match List.find_opt (fun c -> c = target || is_ancestor t ~anc:c ~desc:target) (children t from) with
  | Some c -> c
  | None -> invalid_arg "Tree.child_toward: target not below from"
