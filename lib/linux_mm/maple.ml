(* A maple-tree-style B-tree over non-overlapping intervals — the data
   structure Linux's VMA layer actually uses ([55], "an RCU-safe maple
   tree"): wide nodes (16 slots, cache-line friendly) and therefore very
   shallow trees, read lock-free by the fault path.

   Generic in the item type; the interval is derived through [start]/[stop]
   accessors supplied at creation. Invariants: items are non-overlapping
   and globally sorted by start; leaves hold 1..16 items (root may hold 0);
   internal nodes hold 2..16 children; all leaves at equal depth.

   Deletion uses relaxed rebalancing: an underfull node borrows from or
   merges with a sibling, so the depth bound holds without the full B-tree
   dance on every path.

   Cost model: every node visited during a descent charges one node visit
   (the whole node is one or two cache lines — that is the point of wide
   nodes) plus a shared read of the tree's line; structural changes charge
   an update. *)

let cap = 16 (* slots per node, as in Linux's maple tree *)

type 'a node =
  | Leaf of { mutable items : 'a array }
  | Internal of { mutable children : 'a node array }

type 'a t = {
  start : 'a -> int;
  stop : 'a -> int;
  mutable root : 'a node;
  mutable count : int;
  line : Mm_sim.Engine.Line.t;
  mutable height : int;
}

let visit t =
  match Mm_sim.Engine.current () with
  | Some f ->
    Mm_sim.Engine.tick_on f Mm_sim.Cost.vma_node_visit;
    Mm_sim.Engine.Line.read_on f t.line
  | None -> ()

let create ~start ~stop =
  {
    start;
    stop;
    root = Leaf { items = [||] };
    count = 0;
    line = Mm_sim.Engine.Line.make ();
    height = 1;
  }

let count t = t.count
let height t = t.height

(* Minimum start key in a subtree (wide nodes keep this cheap). *)
let rec min_start t = function
  | Leaf { items } ->
    if Array.length items = 0 then max_int else t.start items.(0)
  | Internal { children } -> min_start t children.(0)

(* Index of the child a key belongs to: the last child whose min_start is
   <= key (or the first child). *)
let child_index t children key =
  let n = Array.length children in
  let idx = ref 0 in
  for i = 1 to n - 1 do
    if min_start t children.(i) <= key then idx := i
  done;
  !idx

(* -- Lookup -- *)

let find t addr =
  let rec go node =
    visit t;
    match node with
    | Leaf { items } ->
      let found = ref None in
      Array.iter
        (fun v -> if t.start v <= addr && addr < t.stop v then found := Some v)
        items;
      !found
    | Internal { children } -> go children.(child_index t children addr)
  in
  go t.root

(* -- Insert -- *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j ->
      if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Insert into a subtree; returns a right sibling when the node split. *)
let rec insert_into t node item =
  visit t;
  match node with
  | Leaf l ->
    let key = t.start item in
    let pos = ref (Array.length l.items) in
    Array.iteri (fun i v -> if t.start v > key && !pos > i then pos := i) l.items;
    l.items <- array_insert l.items !pos item;
    Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
    if Array.length l.items > cap then begin
      (* Split: right half moves to a new leaf. *)
      let n = Array.length l.items in
      let right = Array.sub l.items (n / 2) (n - (n / 2)) in
      l.items <- Array.sub l.items 0 (n / 2);
      Some (Leaf { items = right })
    end
    else None
  | Internal inode -> (
    let idx = child_index t inode.children (t.start item) in
    match insert_into t inode.children.(idx) item with
    | None -> None
    | Some right ->
      inode.children <- array_insert inode.children (idx + 1) right;
      Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
      if Array.length inode.children > cap then begin
        let n = Array.length inode.children in
        let right_children = Array.sub inode.children (n / 2) (n - (n / 2)) in
        inode.children <- Array.sub inode.children 0 (n / 2);
        Some (Internal { children = right_children })
      end
      else None)

let insert t item =
  (match insert_into t t.root item with
  | None -> ()
  | Some right ->
    t.root <- Internal { children = [| t.root; right |] };
    t.height <- t.height + 1);
  t.count <- t.count + 1

(* -- Remove (by exact start key) -- *)

let rec remove_from t node key =
  visit t;
  match node with
  | Leaf l ->
    let found = ref false in
    Array.iteri
      (fun i v ->
        if (not !found) && t.start v = key then begin
          found := true;
          l.items <- array_remove l.items i
        end)
      l.items;
    if !found then Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
    !found
  | Internal inode ->
    let idx = child_index t inode.children key in
    let found = remove_from t inode.children.(idx) key in
    if found then begin
      (* Relaxed rebalance: merge an underfull child into a sibling. *)
      let size = function
        | Leaf { items } -> Array.length items
        | Internal { children } -> Array.length children
      in
      let child = inode.children.(idx) in
      if size child = 0 then
        inode.children <- array_remove inode.children idx
      else if size child = 1 && Array.length inode.children > 1 then begin
        let sib = if idx > 0 then idx - 1 else idx + 1 in
        match (inode.children.(sib), child) with
        | Leaf a, Leaf b ->
          let merged =
            if sib < idx then Array.append a.items b.items
            else Array.append b.items a.items
          in
          if Array.length merged <= cap then begin
            Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
            inode.children.(sib) <- Leaf { items = merged };
            inode.children <- array_remove inode.children idx
          end
        | Internal a, Internal b ->
          let merged =
            if sib < idx then Array.append a.children b.children
            else Array.append b.children a.children
          in
          if Array.length merged <= cap then begin
            Mm_sim.Engine.charge Mm_sim.Cost.vma_tree_update;
            inode.children.(sib) <- Internal { children = merged };
            inode.children <- array_remove inode.children idx
          end
        | _ -> ()
      end
    end;
    found

let remove t key =
  let found = remove_from t t.root key in
  if found then begin
    t.count <- t.count - 1;
    (* Collapse a single-child root. *)
    match t.root with
    | Internal { children = [| only |] } ->
      t.root <- only;
      t.height <- t.height - 1
    | _ -> ()
  end;
  found

(* -- Range queries -- *)

(* All items intersecting [lo, hi), in start order. *)
let overlapping t ~lo ~hi =
  let acc = ref [] in
  let rec go node =
    visit t;
    match node with
    | Leaf { items } ->
      Array.iter
        (fun v -> if t.start v < hi && lo < t.stop v then acc := v :: !acc)
        items
    | Internal { children } ->
      Array.iteri
        (fun i c ->
          (* Prune: skip children entirely right of the range or entirely
             left (their successor's min bound tells us). *)
          let c_min = min_start t c in
          let c_next_min =
            if i + 1 < Array.length children then min_start t children.(i + 1)
            else max_int
          in
          if c_min < hi && lo < c_next_min then go c)
        children
  in
  go t.root;
  List.rev !acc

let iter t f =
  let rec go = function
    | Leaf { items } -> Array.iter f items
    | Internal { children } -> Array.iter go children
  in
  go t.root

(* -- Invariants (for property tests) -- *)

exception Broken of string

let check_invariants t =
  let fail s = raise (Broken s) in
  let leaf_depths = ref [] in
  let rec go node depth last_stop =
    match node with
    | Leaf { items } ->
      leaf_depths := depth :: !leaf_depths;
      Array.fold_left
        (fun prev v ->
          if t.start v < prev then fail "items overlap or out of order";
          if t.stop v <= t.start v then fail "empty interval";
          t.stop v)
        last_stop items
    | Internal { children } ->
      if Array.length children < 1 then fail "empty internal node";
      if Array.length children > cap then fail "overfull internal node";
      Array.fold_left (fun prev c -> go c (depth + 1) prev) last_stop children
  in
  ignore (go t.root 1 min_int);
  (match List.sort_uniq compare !leaf_depths with
  | [] | [ _ ] -> ()
  | _ -> fail "leaves at unequal depths");
  let n = ref 0 in
  iter t (fun _ -> incr n);
  if !n <> t.count then fail "count mismatch"
