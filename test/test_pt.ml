(* Tests for page-table occupancy: the bitset helper, iteration over
   present entries (it must visit exactly what an ascending index loop
   visits, also when the callback fills or clears later slots), the
   folded charge for a run of reads and the walks (each must charge
   exactly what the reads or steps it stands for charge), the walk step
   (the child a table entry names, through each node's remembered
   child, and slot arithmetic equal to the geometry's), the decode
   mirror filled on read (every read equals [decode (encode pte)] of
   the slot's last store, on every ISA), and the well-formedness checks
   that catch a stale occupancy bit in a PT page or a metadata array
   and a stale remembered child. *)

open Cortenmm
module Bitset = Mm_util.Bitset
module Chunked = Mm_util.Chunked
module Rng = Mm_util.Rng
module Engine = Mm_sim.Engine
module Pt = Mm_pt.Pt
module Pte = Mm_hal.Pte
module Perm = Mm_hal.Perm

let check = Alcotest.check
let ints = Alcotest.(list int)

(* -- Bitset -- *)

(* Every set index of [b] below [stop], found with [next]. *)
let collect ?(from = 0) b ~stop =
  let rec go i acc =
    let j = Bitset.next b i ~stop in
    if j >= stop then List.rev acc else go (j + 1) (j :: acc)
  in
  go from []

let test_bitset_single_bits () =
  let n = 512 in
  for i = 0 to n - 1 do
    let b = Bitset.create n in
    Bitset.add b i;
    check ints (Printf.sprintf "bit %d alone" i) [ i ] (collect b ~stop:n);
    check Alcotest.bool "mem" true (Bitset.mem b i);
    check Alcotest.int "past it" n (Bitset.next b (i + 1) ~stop:n);
    check Alcotest.int "below stop" i (Bitset.next b 0 ~stop:(i + 1));
    check Alcotest.int "not below [i]" i (Bitset.next b 0 ~stop:i);
    Bitset.remove b i;
    check ints "removed" [] (collect b ~stop:n)
  done

let test_bitset_clear_and_union () =
  let buf = Bitset.create 100 in
  Bitset.fill buf ~from:0 ~stop:100;
  Bitset.clear buf;
  check ints "cleared" [] (collect buf ~stop:100);
  List.iter (Bitset.add buf) [ 3; 31; 32; 63; 64; 99 ];
  let walk ~stop =
    let rec go i acc =
      let j = Bitset.next buf i ~stop in
      if j >= stop then List.rev acc else go (j + 1) (j :: acc)
    in
    go 0 []
  in
  check ints "all" [ 3; 31; 32; 63; 64; 99 ] (walk ~stop:100);
  check ints "clipped" [ 3; 31; 32 ] (walk ~stop:33);
  let other = Bitset.create 100 in
  List.iter (Bitset.add other) [ 0; 31; 70 ];
  let union ~from ~stop =
    let rec go i acc =
      let j = Bitset.next_union buf other i ~stop in
      if j >= stop then List.rev acc else go (j + 1) (j :: acc)
    in
    go from []
  in
  check ints "union" [ 0; 3; 31; 32; 63; 64; 70; 99 ] (union ~from:0 ~stop:100);
  check ints "union, from 32 to 70" [ 32; 63; 64 ] (union ~from:32 ~stop:70)

let test_bitset_fill () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 200 do
    let a = Rng.int rng 513 and b = Rng.int rng 513 in
    let from = min a b and stop = max a b in
    let filled = Bitset.create 512 and added = Bitset.create 512 in
    Bitset.add filled (Rng.int rng 512);
    Bytes.blit filled 0 added 0 (Bytes.length filled);
    Bitset.fill filled ~from ~stop;
    for i = from to stop - 1 do
      Bitset.add added i
    done;
    check ints
      (Printf.sprintf "fill [%d, %d)" from stop)
      (collect added ~stop:512) (collect filled ~stop:512)
  done

(* -- Iteration over present entries -- *)

let leaf pfn = Pte.leaf ~pfn ~perm:Perm.rw ()

let fresh_leaf_page () =
  let phys = Mm_phys.Phys.create () in
  let pt = Pt.create phys Mm_hal.Isa.x86_64 in
  (pt, Pt.walk_create pt ~to_level:1 0)

(* A seeded random sequence of stores (maps and clears) on one page. *)
let random_stores pt node ~seed ~stores =
  let rng = Rng.create ~seed in
  let n = Pt.entries_per_node pt in
  for _ = 1 to stores do
    let idx = Rng.int rng n in
    Pt.set pt node idx
      (if Rng.int rng 3 = 0 then Pte.Absent else leaf (1000 + idx))
  done

let present_by_index pt node ~first ~last =
  List.filter
    (fun idx -> Pte.is_present (Pt.get_uncharged pt node idx))
    (List.init (last - first + 1) (fun i -> first + i))

let test_iter_present_random () =
  List.iter
    (fun (seed, stores) ->
      let pt, node = fresh_leaf_page () in
      random_stores pt node ~seed ~stores;
      let n = Pt.entries_per_node pt in
      let seen = ref [] in
      Pt.iter_present pt node (fun idx -> seen := idx :: !seen);
      check ints
        (Printf.sprintf "seed %d, %d stores" seed stores)
        (present_by_index pt node ~first:0 ~last:(n - 1))
        (List.rev !seen);
      (* Sub-ranges, with the same clipped bounds as [iter_range]. *)
      let rng = Rng.create ~seed:(seed + 1000) in
      for _ = 1 to 20 do
        let a = Rng.int rng n and b = Rng.int rng n in
        let lo = min a b * 4096 and hi = (max a b + 1) * 4096 in
        let got = ref [] in
        Pt.iter_present_range pt node ~lo ~hi (fun idx sub_lo sub_hi ->
            check Alcotest.bool "subrange clipped" true
              (sub_lo = idx * 4096 && sub_hi = sub_lo + 4096);
            got := idx :: !got);
        check ints
          (Printf.sprintf "range [%d, %d]" (min a b) (max a b))
          (present_by_index pt node ~first:(min a b) ~last:(max a b))
          (List.rev !got)
      done)
    [ (1, 0); (2, 20); (3, 300); (4, 2000); (5, 6000) ]

(* The callback fills or clears slots after the one it is given (and
   sometimes the one itself): iteration must follow the live entries as
   an ascending index loop reading them as it goes does. Both runs apply
   the same seeded mutations to twin pages. *)
let test_iter_present_mutating_callback () =
  List.iter
    (fun seed ->
      let n = 512 in
      let mutate pt node rng idx =
        for _ = 1 to Rng.int rng 4 do
          let j = idx + Rng.int rng 40 in
          if j < n then
            Pt.set pt node j
              (if Rng.bool rng then Pte.Absent else leaf (5000 + j))
        done
      in
      let pt_a, node_a = fresh_leaf_page () in
      let pt_b, node_b = fresh_leaf_page () in
      random_stores pt_a node_a ~seed ~stores:400;
      random_stores pt_b node_b ~seed ~stores:400;
      let rng_a = Rng.create ~seed:(seed * 7) in
      let by_index = ref [] in
      for idx = 0 to n - 1 do
        if Pte.is_present (Pt.get_uncharged pt_a node_a idx) then begin
          by_index := idx :: !by_index;
          mutate pt_a node_a rng_a idx
        end
      done;
      let rng_b = Rng.create ~seed:(seed * 7) in
      let by_bits = ref [] in
      Pt.iter_present pt_b node_b (fun idx ->
          by_bits := idx :: !by_bits;
          mutate pt_b node_b rng_b idx);
      check ints
        (Printf.sprintf "seed %d: same visits" seed)
        (List.rev !by_index) (List.rev !by_bits);
      check ints
        (Printf.sprintf "seed %d: same final page" seed)
        (present_by_index pt_a node_a ~first:0 ~last:(n - 1))
        (present_by_index pt_b node_b ~first:0 ~last:(n - 1));
      Pt.check_well_formed pt_b)
    [ 1; 2; 3; 4; 5; 6 ]

(* -- The folded charge for a run of reads -- *)

(* The line states a PT page's line can be in when a scan reaches it:
   never touched, held by the scanning CPU, held by another CPU (whose
   store may still be in flight when the scan starts), or shared. *)
type line_state = Untouched | Self | Other | Shared

let line_state_name = function
  | Untouched -> "none"
  | Self -> "self"
  | Other -> "other cpu"
  | Shared -> "shared"

let in_world ~cpu f =
  let w = Engine.create ~ncpus:3 in
  Engine.spawn w ~cpu f;
  Engine.run w

(* Leave [line] in [state]: a store lands at time 50 on CPU 0 or 1,
   and for [Shared] CPU 2 then reads the line. *)
let put_line_in state line =
  let store_by cpu =
    in_world ~cpu (fun () ->
        Engine.tick 50;
        Engine.Line.rmw_on (Engine.fiber ()) line)
  in
  match state with
  | Untouched -> ()
  | Self -> store_by 0
  | Other -> store_by 1
  | Shared ->
    store_by 1;
    in_world ~cpu:2 (fun () -> Engine.Line.read_on (Engine.fiber ()) line)

(* A fresh page whose line is in [state], then [k] reads by CPU 0 once
   its clock reads [start] (via [k] gets or one folded charge): the
   fiber clock and the line's [avail] and [owner] afterwards. *)
let read_run ~state ~start ~k ~folded =
  let pt, node = fresh_leaf_page () in
  let line = node.Pt.frame.Mm_phys.Frame.line in
  put_line_in state line;
  let clock = ref 0 in
  in_world ~cpu:0 (fun () ->
      Engine.tick start;
      if folded then Pt.charge_gets pt node k
      else
        for _ = 1 to k do
          ignore (Pt.get pt node 0)
        done;
      clock := Engine.now ());
  (!clock, Engine.Line.avail line, Engine.Line.owner line)

let test_folded_charge_exact () =
  List.iter
    (fun state ->
      List.iter
        (fun start ->
          List.iter
            (fun k ->
              let name =
                Printf.sprintf "k=%d, owner %s, clock %d" k
                  (line_state_name state) start
              in
              let triple = Alcotest.(triple int int int) in
              check triple name
                (read_run ~state ~start ~k ~folded:false)
                (read_run ~state ~start ~k ~folded:true))
            [ 1; 2; 511 ])
        (* Before and after the other CPU's store completes. *)
        [ 0; 1000 ])
    [ Untouched; Self; Other; Shared ]

let test_folded_charge_outside_fiber () =
  let pt, node = fresh_leaf_page () in
  Pt.charge_gets pt node 5;
  check Alcotest.int "no line effect" (-1)
    (Engine.Line.owner node.Pt.frame.Mm_phys.Frame.line)

(* -- The walks --

   A per-page loop over [lo, hi) as NrOS runs it: walk to level 1, then
   store a leaf (the [walk_create] form) or clear a present one (the
   [walk_opt] form). Run once through [Pt.walk_create]/[walk_opt] and
   once through a descent built from [Pt.get], [Pt.child] and
   [Pt.ensure_child], one level at a time; everything simulated must
   come out the same. *)

let block = 1 lsl 21
let gib = 1 lsl 30

(* A tree holding a leaf at each address of [pages], built outside any
   fiber; each upper-level page's line is then left in [state]. *)
let populated pages ~state =
  let phys = Mm_phys.Phys.create () in
  let pt = Pt.create phys Mm_hal.Isa.x86_64 in
  List.iter
    (fun v ->
      Pt.set pt
        (Pt.walk_create pt ~to_level:1 v)
        (Pt.index pt ~level:1 ~vaddr:v)
        (leaf (v / 4096)))
    pages;
  Pt.iter_nodes pt (fun node ->
      if node.Pt.level >= 2 then
        put_line_in state node.Pt.frame.Mm_phys.Frame.line);
  pt

(* The walk to level 1 that [Pt.walk_create] (with [create]) or
   [Pt.walk_opt] stands for: [ensure_child], or [get] then [child] on a
   table entry, at each level from the root. *)
let stepwise_walk pt ~create vaddr =
  let rec go node =
    if node.Pt.level = 1 then node
    else
      let idx = Pt.index pt ~level:node.Pt.level ~vaddr in
      if create then go (Pt.ensure_child pt node idx)
      else
        match Pt.get pt node idx with
        | Pte.Table _ -> go (Pt.child pt node idx)
        | Pte.Absent | Pte.Leaf _ -> node
  in
  go (Pt.root pt)

(* The loop's fiber clock, the (level, base) each walk returned, every
   node's (level, base, present, avail, owner) and every leaf. *)
let walk_run ~pages ~state ~start ~create ~lo ~hi ~stepwise =
  let pt = populated pages ~state in
  let found = ref [] and clock = ref 0 in
  in_world ~cpu:0 (fun () ->
      Engine.tick start;
      let v = ref lo in
      while !v < hi do
        let vaddr = !v in
        let node =
          if stepwise then stepwise_walk pt ~create vaddr
          else if create then Pt.walk_create pt ~to_level:1 vaddr
          else Pt.walk_opt pt ~to_level:1 vaddr
        in
        found := (node.Pt.level, node.Pt.base) :: !found;
        (if node.Pt.level = 1 then
           let idx = Pt.index pt ~level:1 ~vaddr in
           if create then Pt.set pt node idx (leaf (vaddr / 4096))
           else
             match Pt.get pt node idx with
             | Pte.Leaf _ -> Pt.set pt node idx Pte.Absent
             | Pte.Absent | Pte.Table _ -> ());
        v := !v + 4096
      done;
      clock := Engine.now ());
  Pt.check_well_formed pt;
  let nodes = ref [] in
  Pt.iter_nodes pt (fun n ->
      let line = n.Pt.frame.Mm_phys.Frame.line in
      nodes :=
        [ n.Pt.level; n.Pt.base; n.Pt.present; Engine.Line.avail line;
          Engine.Line.owner line ]
        :: !nodes);
  let leaves = ref [] in
  Pt.iter_leaves pt (Pt.root pt) (fun v level pte ->
      leaves := Printf.sprintf "%#x/%d %s" v level (Pte.to_string pte) :: !leaves);
  (!clock, List.rev !found, List.rev !nodes, List.rev !leaves)

let test_walks_exact () =
  let p = 4096 in
  (* Start and end inside one leaf page; cross a 2 MiB boundary; cross
     a 1 GiB boundary and the 2 MiB one after it. *)
  let ranges =
    [
      (block + (3 * p), block + (9 * p));
      ((2 * block) - (3 * p), (2 * block) + (4 * p));
      (gib - (2 * p), gib + block + (3 * p));
    ]
  in
  (* Empty; one leaf page below the 1 GiB boundary (walks past it stop
     at level 3); leaf pages in and around every range, with the block at
     the 1 GiB boundary left without one (walks there stop at level 2). *)
  let populations =
    [
      [];
      [ gib - (5 * p) ];
      [ block + (4 * p); (2 * block) - p; (2 * block) + (2 * p);
        gib - (5 * p); gib - p; gib + block + p ];
    ]
  in
  List.iteri
    (fun pi pages ->
      List.iter
        (fun (lo, hi) ->
          List.iter
            (fun state ->
              List.iter
                (fun start ->
                  List.iter
                    (fun create ->
                      let name =
                        Printf.sprintf "%s [%#x, %#x), population %d, %s, clock %d"
                          (if create then "walk_create" else "walk_opt")
                          lo hi pi (line_state_name state) start
                      in
                      let run stepwise =
                        walk_run ~pages ~state ~start ~create ~lo ~hi ~stepwise
                      in
                      let c0, f0, n0, l0 = run false
                      and c1, f1, n1, l1 = run true in
                      check Alcotest.int (name ^ ": clock") c0 c1;
                      check
                        Alcotest.(list (pair int int))
                        (name ^ ": walk results") f0 f1;
                      check
                        Alcotest.(list (list int))
                        (name ^ ": nodes and lines") n0 n1;
                      check Alcotest.(list string) (name ^ ": leaves") l0 l1)
                    [ true; false ])
                [ 0; 1000 ])
            [ Untouched; Self; Other; Shared ])
        ranges)
    populations

(* -- The walk step -- *)

(* Random link, detach, free and huge-leaf operations on eight slots of
   one level-2 page, against a model of what each slot holds. After
   every operation each table entry's child must be the node the entry's
   pfn names, read through [Pt.child] (twice: a miss, then the node's
   remembered child), [Pt.child] must refuse every other entry, and the
   tree must be well-formed. *)
type slot_op =
  | Ensure of int (* [ensure_child] *)
  | Link of int (* [alloc_node] then [set_child] *)
  | Lookup of int (* [child] on a table entry *)
  | Detach of int (* [detach_child]; the node waits to be freed *)
  | Free (* [free_node] on the oldest detached node *)
  | Relink of int (* detach, free, and link a new page at the same slot *)
  | Huge of int (* overwrite a table entry with a huge leaf *)
  | Clear of int (* store [Absent] over a huge leaf *)

type slot_state = Empty | Kid of unit Pt.node | Huge_leaf

let slot_ops_prop =
  let slots = 8 in
  let gen =
    QCheck.Gen.(
      let i = int_bound (slots - 1) in
      list_size (int_bound 200)
        (frequency
           [
             (3, map (fun i -> Ensure i) i);
             (2, map (fun i -> Link i) i);
             (4, map (fun i -> Lookup i) i);
             (2, map (fun i -> Detach i) i);
             (1, return Free);
             (2, map (fun i -> Relink i) i);
             (1, map (fun i -> Huge i) i);
             (1, map (fun i -> Clear i) i);
           ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Ensure i -> Printf.sprintf "ensure %d" i
           | Link i -> Printf.sprintf "link %d" i
           | Lookup i -> Printf.sprintf "lookup %d" i
           | Detach i -> Printf.sprintf "detach %d" i
           | Free -> "free"
           | Relink i -> Printf.sprintf "relink %d" i
           | Huge i -> Printf.sprintf "huge %d" i
           | Clear i -> Printf.sprintf "clear %d" i)
         ops)
  in
  QCheck.Test.make ~name:"child is the node its entry names" ~count:100
    (QCheck.make ~print gen) (fun ops ->
      let phys = Mm_phys.Phys.create () in
      let pt : unit Pt.t = Pt.create phys Mm_hal.Isa.x86_64 in
      let p = Pt.walk_create pt ~to_level:2 0 in
      let model = Array.make slots Empty and detached = Queue.create () in
      let detach i =
        let c = Pt.detach_child pt p i in
        model.(i) <- Empty;
        c
      in
      let agrees () =
        Pt.check_well_formed pt;
        Array.for_all Fun.id
          (Array.mapi
             (fun i state ->
               match (state, Pt.get_uncharged pt p i) with
               | Kid c, Pte.Table { pfn } ->
                 pfn = c.Pt.frame.Mm_phys.Frame.pfn
                 && Pt.child pt p i == c
                 && Pt.child pt p i == c
               | Huge_leaf, Pte.Leaf _ | Empty, Pte.Absent -> (
                 match Pt.child pt p i with
                 | _ -> false
                 | exception Invalid_argument _ -> true)
               | _ -> false)
             model)
      in
      List.for_all
        (fun op ->
          (match (op, model) with
          | Ensure i, _ when model.(i) <> Huge_leaf ->
            let c = Pt.ensure_child pt p i in
            (match model.(i) with
            | Kid k -> assert (k == c)
            | Empty | Huge_leaf -> ());
            model.(i) <- Kid c
          | Link i, _ when model.(i) = Empty ->
            let c = Pt.alloc_node pt ~level:1 in
            Pt.set_child pt p i c;
            model.(i) <- Kid c
          | Lookup i, _ -> (
            match model.(i) with
            | Kid c -> assert (Pt.child pt p i == c)
            | Empty | Huge_leaf -> ())
          | Detach i, _ when (match model.(i) with Kid _ -> true | _ -> false)
            ->
            Queue.add (detach i) detached
          | Free, _ when not (Queue.is_empty detached) ->
            Pt.free_node pt (Queue.pop detached)
          | Relink i, _ when (match model.(i) with Kid _ -> true | _ -> false)
            ->
            (* A new page on the old page's freed frame, at the same
               slot: allocate until that pfn comes back. *)
            let old = detach i in
            let pfn = old.Pt.frame.Mm_phys.Frame.pfn in
            Pt.free_node pt old;
            let rec same_pfn spares =
              let c = Pt.alloc_node pt ~level:1 in
              if c.Pt.frame.Mm_phys.Frame.pfn = pfn then (c, spares)
              else same_pfn (c :: spares)
            in
            let c, spares = same_pfn [] in
            List.iter (Pt.free_node pt) spares;
            Pt.set_child pt p i c;
            model.(i) <- Kid c
          | Huge i, _ when (match model.(i) with Kid _ -> true | _ -> false)
            ->
            let c = match model.(i) with Kid c -> c | _ -> assert false in
            Pt.set pt p i (Pte.leaf ~pfn:0x200 ~perm:Perm.rw ());
            c.Pt.parent <- None;
            Pt.free_node pt c;
            model.(i) <- Huge_leaf
          | Clear i, _ when model.(i) = Huge_leaf ->
            Pt.set pt p i Pte.Absent;
            model.(i) <- Empty
          | _ -> ());
          agrees ())
        ops)

(* -- The decode mirror is a cache filled on read -- *)

(* Random stores on a few slots of one level-2 node, spread over its
   chunks, each followed half the time by a read of its slot. Every
   read must equal the reference [decode (encode pte)] of the slot's
   last store, and the tree must be well-formed before and after every
   slot has been read: the check must not depend on which slots a read
   has decoded. *)
type mirror_op =
  | Store of int * Pte.t (* [set]: a huge leaf or [Absent] *)
  | Set_child of int (* a new page over a non-table entry *)
  | Detach_child of int (* then free the page *)
  | Set_accessed of int
  | Clear_accessed of int

let mirror_slots = [| 0; 1; 63; 64; 130; 448; 511 |]

let lazy_mirror_prop (isa : Mm_hal.Isa.t) =
  let mpk = Mm_hal.Isa.supports_mpk isa in
  let gen =
    QCheck.Gen.(
      let i = int_bound (Array.length mirror_slots - 1) in
      let perm =
        map
          (fun (write, execute, user, cow, key) ->
            Perm.make ~write ~execute ~user ~cow
              ~mpk_key:(if mpk then key else 0)
              ())
          (tup5 bool bool bool bool (int_bound 15))
      in
      let huge_leaf =
        map
          (fun (k, perm, (accessed, dirty, global)) ->
            Pte.leaf ~accessed ~dirty ~global ~pfn:(512 * k) ~perm ())
          (triple (int_range 1 1000) perm (triple bool bool bool))
      in
      let op =
        frequency
          [
            (4, map2 (fun i l -> Store (i, l)) i huge_leaf);
            (2, map (fun i -> Store (i, Pte.Absent)) i);
            (2, map (fun i -> Set_child i) i);
            (2, map (fun i -> Detach_child i) i);
            (2, map (fun i -> Set_accessed i) i);
            (2, map (fun i -> Clear_accessed i) i);
          ]
      in
      list_size (int_bound 100) (pair op bool))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (op, read) ->
           (match op with
           | Store (i, pte) ->
             Printf.sprintf "set %d %s" mirror_slots.(i) (Pte.to_string pte)
           | Set_child i -> Printf.sprintf "set_child %d" mirror_slots.(i)
           | Detach_child i -> Printf.sprintf "detach %d" mirror_slots.(i)
           | Set_accessed i -> Printf.sprintf "set_accessed %d" mirror_slots.(i)
           | Clear_accessed i ->
             Printf.sprintf "clear_accessed %d" mirror_slots.(i))
           ^ if read then " +read" else "")
         ops)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: read = decode (encode)" isa.name)
    ~count:100 (QCheck.make ~print gen) (fun ops ->
      let phys = Mm_phys.Phys.create () in
      let pt : unit Pt.t = Pt.create phys isa in
      let p = Pt.walk_create pt ~to_level:2 0 in
      let n = Pt.entries_per_node pt in
      let expected = Array.make n Pte.Absent in
      let roundtrip idx pte =
        expected.(idx) <-
          Mm_hal.Isa.decode isa ~level:2 (Mm_hal.Isa.encode isa ~level:2 pte)
      in
      let reads_ok idx = Pte.equal (Pt.get_uncharged pt p idx) expected.(idx) in
      List.for_all
        (fun (op, read) ->
          let idx =
            match op with
            | Store (i, _)
            | Set_child i
            | Detach_child i
            | Set_accessed i
            | Clear_accessed i ->
              mirror_slots.(i)
          in
          (match (op, expected.(idx)) with
          | Store (_, pte), current ->
            let unlinked =
              match current with
              | Pte.Table _ -> Some (Pt.child pt p idx)
              | Pte.Absent | Pte.Leaf _ -> None
            in
            Pt.set pt p idx pte;
            (* The store unlinked the page under a table entry. *)
            Option.iter
              (fun c ->
                c.Pt.parent <- None;
                Pt.free_node pt c)
              unlinked;
            roundtrip idx pte
          | Set_child _, (Pte.Absent | Pte.Leaf _) ->
            let c = Pt.alloc_node pt ~level:1 in
            Pt.set_child pt p idx c;
            roundtrip idx (Pte.Table { pfn = c.Pt.frame.Mm_phys.Frame.pfn })
          | Detach_child _, Pte.Table _ ->
            Pt.free_node pt (Pt.detach_child pt p idx);
            roundtrip idx Pte.Absent
          | Set_accessed _, current ->
            Pt.set_accessed pt p idx;
            (match current with
            | Pte.Leaf l -> roundtrip idx (Pte.Leaf { l with accessed = true })
            | Pte.Absent | Pte.Table _ -> ())
          | Clear_accessed _, current ->
            Pt.clear_accessed pt p idx;
            (match current with
            | Pte.Leaf l ->
              roundtrip idx (Pte.Leaf { l with accessed = false })
            | Pte.Absent | Pte.Table _ -> ())
          | (Set_child _ | Detach_child _), _ -> ());
          (not read) || reads_ok idx)
        ops
      && begin
           Pt.check_well_formed pt;
           let all_read = List.for_all reads_ok (List.init n Fun.id) in
           Pt.check_well_formed pt;
           all_read
         end)

(* [Pt]'s slot arithmetic against the geometry's, at every level of
   every ISA, at random addresses and ranges around each node. *)
let test_slots_match_geometry () =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun (isa : Mm_hal.Isa.t) ->
      let geo = isa.Mm_hal.Isa.geo in
      let module G = Mm_hal.Geometry in
      let phys = Mm_phys.Phys.create () in
      let pt : unit Pt.t = Pt.create phys isa in
      let limit = G.va_limit geo in
      for _ = 1 to 200 do
        let vaddr = Rng.int rng limit in
        for level = 1 to geo.G.levels do
          let node = Pt.walk_create pt ~to_level:level vaddr in
          let name what =
            Printf.sprintf "%s: %s at level %d, %#x" isa.Mm_hal.Isa.name what
              level vaddr
          in
          check Alcotest.int (name "index")
            (G.index geo ~level ~vaddr)
            (Pt.index pt ~level ~vaddr);
          check Alcotest.int (name "entry coverage")
            (G.coverage geo ~level)
            (Pt.entry_coverage pt node);
          (* A range inside one entry, one crossing into the next, and
             one past the node. *)
          let cov = G.coverage geo ~level in
          let lo = vaddr - (vaddr mod G.page_size geo) in
          List.iter
            (fun hi ->
              let expected =
                if level <= 1 then -1
                else
                  let idx = G.index geo ~level ~vaddr:lo in
                  let e_lo = node.Pt.base + (idx * cov) in
                  if e_lo <= lo && hi <= e_lo + cov then idx else -1
              in
              check Alcotest.int
                (name (Printf.sprintf "covering slot of [%#x, %#x)" lo hi))
                expected
                (Pt.covering_slot pt node ~lo ~hi))
            [
              lo + G.page_size geo;
              lo - (lo mod cov) + cov;
              lo - (lo mod cov) + cov + G.page_size geo;
              lo + (cov * 3);
            ]
        done
      done)
    Mm_hal.Isa.all

(* -- Well-formedness catches stale occupancy bits -- *)

let ill_formed name f =
  check Alcotest.bool name true
    (try
       f ();
       false
     with Pt.Ill_formed _ -> true)

let test_pt_stale_occupancy () =
  let pt, node = fresh_leaf_page () in
  random_stores pt node ~seed:9 ~stores:200;
  Pt.check_well_formed pt;
  let present = List.hd (present_by_index pt node ~first:0 ~last:511) in
  let absent =
    List.find
      (fun i -> not (Pte.is_present (Pt.get_uncharged pt node i)))
      (List.init 512 Fun.id)
  in
  List.iter
    (fun idx ->
      Pt.corrupt_occupancy pt node idx;
      ill_formed (Printf.sprintf "flipped bit %d caught" idx) (fun () ->
          Pt.check_well_formed pt);
      Pt.corrupt_occupancy pt node idx;
      Pt.check_well_formed pt)
    [ present; absent ];
  (* The decode mirror's own check, alongside. *)
  let saved = Pt.get_uncharged pt node present in
  Pt.corrupt_mirror pt node present Pte.Absent;
  ill_formed "stale mirror caught" (fun () -> Pt.check_well_formed pt);
  Pt.corrupt_mirror pt node present saved;
  Pt.check_well_formed pt

(* A remembered child that is not the node its slot's entry names — or
   a forgotten one still holding a node — is caught. *)
let test_stale_memo () =
  let phys = Mm_phys.Phys.create () in
  let pt = Pt.create phys Mm_hal.Isa.x86_64 in
  let p = Pt.walk_create pt ~to_level:2 0 in
  let c0 = Pt.ensure_child pt p 0 and c1 = Pt.ensure_child pt p 1 in
  Pt.check_well_formed pt;
  Pt.corrupt_memo pt p 0 c1;
  ill_formed "another slot's child caught" (fun () -> Pt.check_well_formed pt);
  Pt.corrupt_memo pt p 5 c0;
  ill_formed "child at an absent slot caught" (fun () ->
      Pt.check_well_formed pt);
  Pt.corrupt_memo pt p (-1) c0;
  ill_formed "forgotten memo holding a node caught" (fun () ->
      Pt.check_well_formed pt);
  Pt.corrupt_memo pt p 0 c0;
  Pt.check_well_formed pt;
  check Alcotest.bool "child through the memo" true (Pt.child pt p 0 == c0);
  check Alcotest.bool "child past the memo" true (Pt.child pt p 1 == c1);
  Pt.check_well_formed pt

let test_meta_stale_occupancy () =
  let w = Engine.create ~ncpus:1 in
  let kernel = Kernel.create ~ncpus:1 () in
  let asp = Addr_space.create kernel Config.adv in
  Engine.spawn w ~cpu:0 (fun () ->
      let addr = Mm_compat.mmap asp ~len:(16 * 4096) ~perm:Perm.rw () in
      for i = 0 to 7 do
        Mm.touch asp ~vaddr:(addr + (i * 4096)) ~write:true
      done);
  Engine.run w;
  Addr_space.check_well_formed asp;
  let m =
    let found = ref None in
    Pt.iter_nodes (Addr_space.pt asp) (fun (node : Addr_space.node) ->
        match node.Pt.meta with
        | Some m when m.Addr_space.live > 0 -> found := Some m
        | _ -> ());
    Option.get !found
  in
  let flip idx =
    if Bitset.mem m.Addr_space.bits idx then
      Bitset.remove m.Addr_space.bits idx
    else Bitset.add m.Addr_space.bits idx
  in
  let live = Bitset.next m.Addr_space.bits 0 ~stop:512 in
  let dead =
    List.find
      (fun i -> Chunked.get m.Addr_space.slots i = Status.M_invalid)
      (List.init 512 Fun.id)
  in
  List.iter
    (fun idx ->
      flip idx;
      ill_formed (Printf.sprintf "flipped metadata bit %d caught" idx)
        (fun () -> Addr_space.check_well_formed asp);
      flip idx;
      Addr_space.check_well_formed asp)
    [ live; dead ];
  m.Addr_space.live <- m.Addr_space.live + 1;
  ill_formed "wrong live count caught" (fun () ->
      Addr_space.check_well_formed asp);
  m.Addr_space.live <- m.Addr_space.live - 1;
  Addr_space.check_well_formed asp

let () =
  Alcotest.run "mm_pt"
    [
      ( "bitset",
        [
          Alcotest.test_case "single bits" `Quick test_bitset_single_bits;
          Alcotest.test_case "clear and union" `Quick
            test_bitset_clear_and_union;
          Alcotest.test_case "fill runs" `Quick test_bitset_fill;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "random stores" `Quick test_iter_present_random;
          Alcotest.test_case "mutating callback" `Quick
            test_iter_present_mutating_callback;
        ] );
      ( "folded charge",
        [
          Alcotest.test_case "equals k gets" `Quick test_folded_charge_exact;
          Alcotest.test_case "outside a fiber" `Quick
            test_folded_charge_outside_fiber;
          Alcotest.test_case "walks equal get-per-level descents" `Quick
            test_walks_exact;
        ] );
      ( "walk step",
        [
          QCheck_alcotest.to_alcotest slot_ops_prop;
          Alcotest.test_case "slots match the geometry" `Quick
            test_slots_match_geometry;
        ] );
      ( "lazy mirror",
        List.map
          (fun isa -> QCheck_alcotest.to_alcotest (lazy_mirror_prop isa))
          Mm_hal.Isa.all );
      ( "well-formed",
        [
          Alcotest.test_case "stale PT occupancy bit" `Quick
            test_pt_stale_occupancy;
          Alcotest.test_case "stale metadata bit and live count" `Quick
            test_meta_stale_occupancy;
          Alcotest.test_case "stale remembered child" `Quick test_stale_memo;
        ] );
    ]
